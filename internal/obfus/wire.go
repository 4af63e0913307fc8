package obfus

import (
	"encoding/binary"

	"obfusmem/internal/aes"
	"obfusmem/internal/bus"
)

// Command-field wire layout inside one AES block (bus.CmdBytes): a type
// byte, a 64-bit big-endian address, and zero padding. The whole field is
// XORed with a counter-mode pad before transmission, so what appears on the
// wire is uniformly distributed and never repeats (Section 3.2).
const (
	cmdTypeOff = 0
	cmdAddrOff = 1
)

// encodeCmd builds the plaintext command field.
func encodeCmd(t bus.ReqType, addr uint64) [bus.CmdBytes]byte {
	var b [bus.CmdBytes]byte
	b[cmdTypeOff] = byte(t)
	binary.BigEndian.PutUint64(b[cmdAddrOff:cmdAddrOff+8], addr)
	return b
}

// decodeCmd parses a plaintext command field.
func decodeCmd(b [bus.CmdBytes]byte) (t bus.ReqType, addr uint64) {
	return bus.ReqType(b[cmdTypeOff]), binary.BigEndian.Uint64(b[cmdAddrOff : cmdAddrOff+8])
}

// sealCmd encrypts a command field with one pad.
func sealCmd(plain [bus.CmdBytes]byte, pad aes.Pad) [bus.CmdBytes]byte {
	var out [bus.CmdBytes]byte
	for i := range plain {
		out[i] = plain[i] ^ pad[i]
	}
	return out
}

// openCmd decrypts a command field with one pad (XOR is its own inverse).
func openCmd(cipher [bus.CmdBytes]byte, pad aes.Pad) (t bus.ReqType, addr uint64) {
	return decodeCmd(sealCmd(cipher, pad))
}
