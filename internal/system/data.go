package system

import (
	"obfusmem/internal/memctl"
	"obfusmem/internal/merkle"
	"obfusmem/internal/sim"
)

// Value-carrying mode: WriteData/ReadData move real bytes end to end —
// counter-mode at-rest encryption, ObfusMem transit encryption, functional
// storage in the memory module, and Merkle verification of what comes
// back. This is where Observation 4 closes: in-flight data corruption that
// the bus MAC deliberately does not cover is caught here when the block is
// next read.

// verifyRegionBlocks bounds the functional Merkle tree: tests and examples
// use low addresses, and blocks above it skip the Merkle check.
const verifyRegionBlocks = 1 << 14 // 1 MB of 64-byte blocks

// Block re-exports the storage unit.
type Block = memctl.Block

func (s *System) tree() *merkle.Tree {
	if s.dataTree == nil {
		s.dataTree = merkle.New(verifyRegionBlocks, 64, 2)
	}
	return s.dataTree
}

func tracked(addr uint64) (int, bool) {
	blk := addr / 64
	if blk >= verifyRegionBlocks {
		return 0, false
	}
	return int(blk), true
}

// WriteData writes a plaintext block through the machine's full datapath,
// returning the write's retirement time.
func (s *System) WriteData(at sim.Time, addr uint64, plaintext Block) sim.Time {
	addr = (addr % memctl.Capacity) &^ 63
	if blk, ok := tracked(addr); ok {
		s.tree().Update(blk, plaintext[:])
	}
	ct := plaintext
	ready := at
	if s.enc != nil {
		ready, _ = s.enc.EncryptWriteback(at, addr)
		s.enc.EncryptData(ct[:], addr)
	}
	return s.bk.Write(at, addr, ready, &ct)
}

// ReadData reads a block back through the full datapath. verified is false
// when the Merkle check failed (data was corrupted somewhere between the
// last write and this read) or, for protected modes, when the bus-level
// protocol rejected the access.
func (s *System) ReadData(at sim.Time, addr uint64) (plaintext Block, done sim.Time, verified bool) {
	addr = (addr % memctl.Capacity) &^ 63
	raw, protoOK := s.bk.Read(at, addr, &plaintext)
	if s.enc != nil {
		done = s.enc.DecryptFill(at, addr, raw)
		s.enc.DecryptData(plaintext[:], addr)
	} else {
		done = raw
	}
	verified = protoOK
	if blk, ok := tracked(addr); ok && protoOK {
		verified = s.tree().Verify(blk, plaintext[:])
	}
	return plaintext, done, verified
}
