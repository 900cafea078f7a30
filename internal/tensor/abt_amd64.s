//go:build !purego

#include "textflag.h"

// func cpuHasAVX() bool
// CPUID.1:ECX bits 27 (the OS uses XSAVE) and 28 (AVX), then XCR0 bits
// 1 and 2: the OS saves XMM and YMM state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $27, CX
	ANDL $3, CX
	CMPL CX, $3
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
done:
	SETEQ ret+0(FP)
	RET

// TRANSPOSE8 transposes the 8×8 float32 matrix with rows a0..a7 into
// b0..b7 and clobbers a0..a7: pairs of rows interleaved, then pairs of
// pairs, then the two 128-bit halves.
#define TRANSPOSE8(a0, a1, a2, a3, a4, a5, a6, a7, b0, b1, b2, b3, b4, b5, b6, b7) \
	VUNPCKLPS a1, a0, b0; VUNPCKHPS a1, a0, b1 \
	VUNPCKLPS a3, a2, b2; VUNPCKHPS a3, a2, b3 \
	VUNPCKLPS a5, a4, b4; VUNPCKHPS a5, a4, b5 \
	VUNPCKLPS a7, a6, b6; VUNPCKHPS a7, a6, b7 \
	VSHUFPS $0x44, b2, b0, a0; VSHUFPS $0xEE, b2, b0, a1 \
	VSHUFPS $0x44, b3, b1, a2; VSHUFPS $0xEE, b3, b1, a3 \
	VSHUFPS $0x44, b6, b4, a4; VSHUFPS $0xEE, b6, b4, a5 \
	VSHUFPS $0x44, b7, b5, a6; VSHUFPS $0xEE, b7, b5, a7 \
	VPERM2F128 $0x20, a4, a0, b0; VPERM2F128 $0x31, a4, a0, b4 \
	VPERM2F128 $0x20, a5, a1, b1; VPERM2F128 $0x31, a5, a1, b5 \
	VPERM2F128 $0x20, a6, a2, b2; VPERM2F128 $0x31, a6, a2, b6 \
	VPERM2F128 $0x20, a7, a3, b3; VPERM2F128 $0x31, a7, a3, b7

// LOADROW and STOREROW move eight floats at base plus entry l of the
// offset table.
#define LOADROW(l, base, y)  MOVQ 8*l(R10), AX; VMOVUPS (base)(AX*1), y
#define STOREROW(l, base, y) MOVQ 8*l(R10), AX; VMOVUPS y, (base)(AX*1)

// TERM is one term of one column: the B element in every lane times the
// eight batch rows in Y8, rounded, then added to the column's sums,
// rounded — the scalar loop's two operations, never fused.
#define TERM(baddr, tmp, acc) VBROADCASTSS baddr, tmp; VMULPS Y8, tmp, tmp; VADDPS tmp, acc, acc

// func abtTile8(c *float32, off *[16]int, at, a, b *float32, k, kb, groups int, first bool)
// The contract is in abt_amd64.go.
TEXT ·abtTile8(SB), NOSPLIT, $0-65
	MOVQ off+8(FP), R10
	MOVQ kb+48(FP), R11

	// at[p*8+lane] = the block's A rows, eight terms a round; the terms
	// past the last whole round are already there.
	MOVQ at+16(FP), DX
	MOVQ a+24(FP), SI
	MOVQ R11, CX
	SHRQ $3, CX
	JZ   packed
pack:
	LOADROW(8, SI, Y0); LOADROW(9, SI, Y1); LOADROW(10, SI, Y2); LOADROW(11, SI, Y3)
	LOADROW(12, SI, Y4); LOADROW(13, SI, Y5); LOADROW(14, SI, Y6); LOADROW(15, SI, Y7)
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPS Y8, (DX); VMOVUPS Y9, 32(DX); VMOVUPS Y10, 64(DX); VMOVUPS Y11, 96(DX)
	VMOVUPS Y12, 128(DX); VMOVUPS Y13, 160(DX); VMOVUPS Y14, 192(DX); VMOVUPS Y15, 224(DX)
	ADDQ $32, SI
	ADDQ $256, DX
	DECQ CX
	JNZ  pack
packed:
	MOVQ c+0(FP), DI
	MOVQ b+32(FP), R13
	MOVQ k+40(FP), R8
	SHLQ $2, R8            // one B row, in bytes
	LEAQ (R8)(R8*2), R9    // three B rows
	SHLQ $5, R11           // the scratch, in bytes
	MOVQ groups+56(FP), R12

group:
	// Y0..Y7: the sums of the group's eight columns, lanes = batch rows.
	MOVQ at+16(FP), DX
	LEAQ (DX)(R11*1), CX
	MOVQ R13, SI           // B rows 0..3 of the group
	LEAQ (R13)(R8*4), BX   // B rows 4..7
	CMPB first+64(FP), $0
	JNE  zero
	LOADROW(0, DI, Y8); LOADROW(1, DI, Y9); LOADROW(2, DI, Y10); LOADROW(3, DI, Y11)
	LOADROW(4, DI, Y12); LOADROW(5, DI, Y13); LOADROW(6, DI, Y14); LOADROW(7, DI, Y15)
	TRANSPOSE8(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	JMP  term
zero:
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
term:
	VMOVUPS (DX), Y8
	TERM((SI), Y9, Y0)
	TERM((SI)(R8*1), Y10, Y1)
	TERM((SI)(R8*2), Y11, Y2)
	TERM((SI)(R9*1), Y12, Y3)
	TERM((BX), Y13, Y4)
	TERM((BX)(R8*1), Y14, Y5)
	TERM((BX)(R8*2), Y15, Y6)
	TERM((BX)(R9*1), Y9, Y7)
	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ $32, DX
	CMPQ DX, CX
	JNE  term

	// Lanes past the block's rows share the last live row's offset:
	// stored from lane 7 down, that row's own sums land last.
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	STOREROW(7, DI, Y15); STOREROW(6, DI, Y14); STOREROW(5, DI, Y13); STOREROW(4, DI, Y12)
	STOREROW(3, DI, Y11); STOREROW(2, DI, Y10); STOREROW(1, DI, Y9); STOREROW(0, DI, Y8)
	ADDQ $32, DI
	LEAQ (R13)(R8*8), R13
	DECQ R12
	JNZ  group
	VZEROUPPER
	RET

// QUAD loads terms p..p+3 of the group's eight B rows, rows 0-3 in the
// low halves of Y12..Y15 and rows 4-7 in the high, and transposes 4×4
// inside each half: Y8..Y11 = terms p..p+3, lanes = the eight columns.
#define QUAD \
	VMOVUPS (SI), X12; VMOVUPS (SI)(R8*1), X13; VMOVUPS (SI)(R8*2), X14; VMOVUPS (SI)(R9*1), X15 \
	VINSERTF128 $1, (BX), Y12, Y12; VINSERTF128 $1, (BX)(R8*1), Y13, Y13 \
	VINSERTF128 $1, (BX)(R8*2), Y14, Y14; VINSERTF128 $1, (BX)(R9*1), Y15, Y15 \
	VUNPCKLPS Y13, Y12, Y4; VUNPCKHPS Y13, Y12, Y5 \
	VUNPCKLPS Y15, Y14, Y6; VUNPCKHPS Y15, Y14, Y7 \
	VSHUFPS $0x44, Y6, Y4, Y8; VSHUFPS $0xEE, Y6, Y4, Y9 \
	VSHUFPS $0x44, Y7, Y5, Y10; VSHUFPS $0xEE, Y7, Y5, Y11

// ONE gathers term p alone of the eight B rows into Y8, for the terms
// past the last whole four.
#define ONE \
	VMOVSS (SI), X8; VINSERTPS $0x10, (SI)(R8*1), X8, X8 \
	VINSERTPS $0x20, (SI)(R8*2), X8, X8; VINSERTPS $0x30, (SI)(R9*1), X8, X8 \
	VMOVSS (BX), X12; VINSERTPS $0x10, (BX)(R8*1), X12, X12 \
	VINSERTPS $0x20, (BX)(R8*2), X12, X12; VINSERTPS $0x30, (BX)(R9*1), X12, X12 \
	VINSERTF128 $1, X12, Y8, Y8

// CTERM is one term of one A row: the A element in every lane times the
// eight columns' B elements in bt, rounded, then added to the row's
// sums, rounded. The weight is the multiply's first source and the
// activation its second, as in TERM.
#define CTERM(aaddr, bt, tmp, acc) VBROADCASTSS aaddr, tmp; VMULPS tmp, bt, tmp; VADDPS tmp, acc, acc
#define CTERM4(a0, a1, a2, a3, acc) \
	CTERM(a0, Y8, Y12, acc); CTERM(a1, Y9, Y13, acc); CTERM(a2, Y10, Y14, acc); CTERM(a3, Y11, Y15, acc)

// func abtTileCol(c, a, b *float32, k, n, rows, groups int)
// The contract is in abt_amd64.go. No AVX instruction writes the flags,
// so one CMPQ of the row count serves the jumps after it.
TEXT ·abtTileCol(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b+16(FP), R13
	MOVQ k+24(FP), R8
	SHLQ $2, R8            // one row of A or B, in bytes
	LEAQ (R8)(R8*2), R9    // three
	MOVQ n+32(FP), R10
	SHLQ $2, R10           // one row of C, in bytes
	LEAQ (R10)(R10*2), R11 // three
	MOVQ rows+40(FP), AX
	MOVQ groups+48(FP), R12

cgroup:
	// Y0..Y3: the sums of rows 0..3, lanes = the group's eight columns.
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3
	MOVQ a+8(FP), DX
	MOVQ R13, SI           // B rows 0..3 of the group
	LEAQ (R13)(R8*4), BX   // B rows 4..7
	MOVQ k+24(FP), CX
	SHRQ $2, CX
	JZ   ctail
cquad:
	QUAD
	CTERM4((DX), 4(DX), 8(DX), 12(DX), Y0)
	CMPQ AX, $2
	JB   cnext
	CTERM4((DX)(R8*1), 4(DX)(R8*1), 8(DX)(R8*1), 12(DX)(R8*1), Y1)
	JE   cnext
	CTERM4((DX)(R8*2), 4(DX)(R8*2), 8(DX)(R8*2), 12(DX)(R8*2), Y2)
	CMPQ AX, $4
	JB   cnext
	CTERM4((DX)(R9*1), 4(DX)(R9*1), 8(DX)(R9*1), 12(DX)(R9*1), Y3)
cnext:
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $16, DX
	DECQ CX
	JNZ  cquad
ctail:
	MOVQ k+24(FP), CX
	ANDQ $3, CX
	JZ   cstore
cone:
	ONE
	CTERM((DX), Y8, Y12, Y0)
	CMPQ AX, $2
	JB   conext
	CTERM((DX)(R8*1), Y8, Y13, Y1)
	JE   conext
	CTERM((DX)(R8*2), Y8, Y14, Y2)
	CMPQ AX, $4
	JB   conext
	CTERM((DX)(R9*1), Y8, Y15, Y3)
conext:
	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ $4, DX
	DECQ CX
	JNZ  cone
cstore:
	VMOVUPS Y0, (DI)
	CMPQ AX, $2
	JB   cstored
	VMOVUPS Y1, (DI)(R10*1)
	JE   cstored
	VMOVUPS Y2, (DI)(R10*2)
	CMPQ AX, $4
	JB   cstored
	VMOVUPS Y3, (DI)(R11*1)
cstored:
	ADDQ $32, DI
	LEAQ (R13)(R8*8), R13
	DECQ R12
	JNZ  cgroup
	VZEROUPPER
	RET
