//go:build !amd64 || race

package storage

// foldKernel is off: there is no kernel for this architecture, or the race
// detector must see every payload byte the fold reads, which it does not
// in assembly.
const foldKernel = false

// xorFold128 is never called where foldKernel is false.
//
//optcc:hotpath
func xorFold128(*byte, int) uint64 { panic("storage: no checksum kernel") }
