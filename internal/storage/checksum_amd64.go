//go:build amd64 && !race

package storage

// foldKernel reports whether checksum folds its 128-byte blocks with
// xorFold128: the CPU has AVX2 and the OS saves YMM state, checked once
// at package init.
var foldKernel = hasAVX2()

// xorFold128 XOR-folds the n bytes at p, n a positive multiple of 128,
// into one 64-bit word (checksum_amd64.s).
//
//go:noescape
//optcc:hotpath
func xorFold128(p *byte, n int) uint64

// hasAVX2 reports whether AVX2 instructions may run: the CPU has them and
// the OS has enabled YMM state (checksum_amd64.s).
func hasAVX2() bool
