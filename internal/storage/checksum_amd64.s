//go:build amd64 && !race

#include "textflag.h"

// func xorFold128(p *byte, n int) uint64
//
// XOR-folds the n bytes at p, n a positive multiple of 128, into one
// 64-bit word: four YMM accumulators take one 32-byte lane of every
// 128-byte block, then fold into each other and down to a quadword.
TEXT ·xorFold128(SB), NOSPLIT, $0-24
	MOVQ  p+0(FP), SI
	MOVQ  n+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	TESTQ CX, CX
	JZ    fold

block:
	VPXOR (SI), Y0, Y0
	VPXOR 32(SI), Y1, Y1
	VPXOR 64(SI), Y2, Y2
	VPXOR 96(SI), Y3, Y3
	ADDQ  $128, SI
	SUBQ  $128, CX
	JNZ   block

fold:
	VPXOR        Y1, Y0, Y0
	VPXOR        Y3, Y2, Y2
	VPXOR        Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPXOR        X1, X0, X0
	VPSRLDQ      $8, X0, X1
	VPXOR        X1, X0, X0
	VMOVQ        X0, AX
	VZEROUPPER
	MOVQ         AX, ret+16(FP)
	RET

// func hasAVX2() bool
//
// Reports whether the CPU has AVX2 and the OS saves YMM state: CPUID leaf
// 1 reports OSXSAVE and AVX, XGETBV reads XCR0 for the XMM and YMM state
// bits, and CPUID leaf 7 reports AVX2.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   no

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX // XMM (bit 1) and YMM (bit 2) state enabled
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
