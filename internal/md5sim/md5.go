// Package md5sim provides the MD5 message digest (RFC 1321) together with a
// timing model of the 64-stage pipelined hardware unit the paper synthesises
// for bus-communication authentication (Section 4: 12.5 mW, 0.214 mm²).
//
// The functional digest is the standard library's crypto/md5; the package
// tests check it against an in-repo RFC 1321 reference block function.
//
// MD5 is used here exactly as in the paper: as a lightweight MAC over the
// plaintext components of a memory request (type | address | counter), where
// the attacker never sees the MAC input in the clear (encrypt-and-MAC,
// Section 3.5). It is not used for collision-resistant signing.
package md5sim

import "crypto/md5"

// Size is the digest length in bytes.
const Size = md5.Size

// BlockSize is the MD5 block size in bytes.
const BlockSize = md5.BlockSize

// Digest computes the MD5 hash of msg. It performs no heap allocation. The
// ObfusMem controller computes per-packet MACs with it only where the bus
// is exposed (an observer, tamperer or fault injector attached) or a
// counter desync must be confirmed; the MD5 unit's timing and energy are
// modelled either way, by a sim.Pipeline and MACEnergyPJ.
func Digest(msg []byte) [Size]byte { return md5.Sum(msg) }
