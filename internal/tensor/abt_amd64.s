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

// func cpuHasAVX512() bool
// CPUID.7.0:EBX bit 16 (AVX512F), then XCR0 bits 5, 6 and 7: the OS
// saves the opmask registers, the upper halves of ZMM0-15 and ZMM16-31.
// Only called once cpuHasAVX has seen XSAVE enabled.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   none
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  none
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	SETEQ ret+0(FP)
	RET
none:
	MOVB $0, ret+0(FP)
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
// batch rows in x (Y8 or Z8), rounded, then added to the column's sums,
// rounded — the scalar loop's two operations, never fused.
#define TERM(baddr, x, tmp, acc) VBROADCASTSS baddr, tmp; VMULPS x, tmp, tmp; VADDPS tmp, acc, acc

// TERMS8Y is one term of the group's eight columns, o bytes past SI
// and BX, against the eight rows in x.
#define TERMS8Y(o, x) \
	TERM(o(SI), x, Y12, Y0); TERM(o(SI)(R8*1), x, Y13, Y1) \
	TERM(o(SI)(R8*2), x, Y14, Y2); TERM(o(SI)(R9*1), x, Y15, Y3) \
	TERM(o(BX), x, Y12, Y4); TERM(o(BX)(R8*1), x, Y13, Y5) \
	TERM(o(BX)(R8*2), x, Y14, Y6); TERM(o(BX)(R9*1), x, Y15, Y7)

// func abtTile8(c *float32, off *[16]int, a, b *float32, k, kb, groups int, first bool)
// The contract is in abt_amd64.go. The frame is the scratch at, abtPanel
// floats from SP, never cleared: the tile writes every float it reads.
TEXT ·abtTile8(SB), $32768-57
	MOVQ off+8(FP), R10
	MOVQ kb+40(FP), R11

	// at[p*8+lane] = the block's A rows, eight terms a round.
	MOVQ SP, DX
	MOVQ a+16(FP), SI
	MOVQ R11, CX
	SHRQ $3, CX
	JZ   tail
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
tail:
	// The terms past the last round of eight, one lane at a time.
	MOVQ R11, CX
	ANDQ $7, CX
	JZ   packed
tterm:
	XORQ BX, BX
tlane:
	MOVQ 64(R10)(BX*8), AX
	MOVL (SI)(AX*1), AX
	MOVL AX, (DX)(BX*4)
	INCQ BX
	CMPQ BX, $8
	JNE  tlane
	ADDQ $4, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  tterm
packed:
	MOVQ c+0(FP), DI
	MOVQ b+24(FP), R13
	MOVQ k+32(FP), R8
	SHLQ $2, R8            // one B row, in bytes
	LEAQ (R8)(R8*2), R9    // three B rows
	SHLQ $5, R11           // the scratch, in bytes
	MOVQ groups+48(FP), R12

group:
	// Y0..Y7: the sums of the group's eight columns, lanes = batch rows.
	MOVQ SP, DX
	LEAQ (DX)(R11*1), CX
	MOVQ R13, SI           // B rows 0..3 of the group
	LEAQ (R13)(R8*4), BX   // B rows 4..7
	CMPB first+56(FP), $0
	JNE  zero
	LOADROW(0, DI, Y8); LOADROW(1, DI, Y9); LOADROW(2, DI, Y10); LOADROW(3, DI, Y11)
	LOADROW(4, DI, Y12); LOADROW(5, DI, Y13); LOADROW(6, DI, Y14); LOADROW(7, DI, Y15)
	TRANSPOSE8(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	JMP  term
zero:
	VXORPS Y0, Y0, Y0; VXORPS Y1, Y1, Y1; VXORPS Y2, Y2, Y2; VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4; VXORPS Y5, Y5, Y5; VXORPS Y6, Y6, Y6; VXORPS Y7, Y7, Y7
	// Four terms an iteration while four are left, then one.
term:
	LEAQ 128(DX), AX
	CMPQ AX, CX
	JA   last
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	VMOVUPS 64(DX), Y10
	VMOVUPS 96(DX), Y11
	TERMS8Y(0, Y8)
	TERMS8Y(4, Y9)
	TERMS8Y(8, Y10)
	TERMS8Y(12, Y11)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $128, DX
	CMPQ DX, CX
	JNE  term
	JMP  done
last:
	VMOVUPS (DX), Y8
	TERMS8Y(0, Y8)
	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ $32, DX
	CMPQ DX, CX
	JNE  last
done:

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

// TERMS8 is one term of the group's eight columns, o bytes past SI and
// BX, against the sixteen rows in x.
#define TERMS8(o, x) \
	TERM(o(SI), x, Z24, Z0); TERM(o(SI)(R8*1), x, Z25, Z1) \
	TERM(o(SI)(R8*2), x, Z26, Z2); TERM(o(SI)(R9*1), x, Z27, Z3) \
	TERM(o(BX), x, Z28, Z4); TERM(o(BX)(R8*1), x, Z29, Z5) \
	TERM(o(BX)(R8*2), x, Z30, Z6); TERM(o(BX)(R9*1), x, Z31, Z7)

// func abtTile16(c *float32, off *[32]int, a, b *float32, k, kb, groups int, first bool)
// The contract is in abt_amd64.go. abtTile8 at twice the width: lanes
// are sixteen batch rows in a ZMM register, and every 16-row block of
// A or C moves as two 8×8 transposes in Y0-Y15, rows 0-7 in the low
// halves and rows 8-15 in the high. Only AVX512F instructions touch
// Z16-Z31. The frame is the scratch, as in abtTile8.
TEXT ·abtTile16(SB), $32768-57
	MOVQ off+8(FP), R10
	MOVQ kb+40(FP), R11

	// at[p*16+lane] = the block's A rows, eight terms a round.
	MOVQ SP, DX
	MOVQ a+16(FP), SI
	MOVQ R11, CX
	SHRQ $3, CX
	JZ   tail16
pack16:
	LOADROW(16, SI, Y0); LOADROW(17, SI, Y1); LOADROW(18, SI, Y2); LOADROW(19, SI, Y3)
	LOADROW(20, SI, Y4); LOADROW(21, SI, Y5); LOADROW(22, SI, Y6); LOADROW(23, SI, Y7)
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPS Y8, (DX); VMOVUPS Y9, 64(DX); VMOVUPS Y10, 128(DX); VMOVUPS Y11, 192(DX)
	VMOVUPS Y12, 256(DX); VMOVUPS Y13, 320(DX); VMOVUPS Y14, 384(DX); VMOVUPS Y15, 448(DX)
	LOADROW(24, SI, Y0); LOADROW(25, SI, Y1); LOADROW(26, SI, Y2); LOADROW(27, SI, Y3)
	LOADROW(28, SI, Y4); LOADROW(29, SI, Y5); LOADROW(30, SI, Y6); LOADROW(31, SI, Y7)
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	VMOVUPS Y8, 32(DX); VMOVUPS Y9, 96(DX); VMOVUPS Y10, 160(DX); VMOVUPS Y11, 224(DX)
	VMOVUPS Y12, 288(DX); VMOVUPS Y13, 352(DX); VMOVUPS Y14, 416(DX); VMOVUPS Y15, 480(DX)
	ADDQ $32, SI
	ADDQ $512, DX
	DECQ CX
	JNZ  pack16
tail16:
	// The terms past the last round of eight, one lane at a time.
	MOVQ R11, CX
	ANDQ $7, CX
	JZ   packed16
tterm16:
	XORQ BX, BX
tlane16:
	MOVQ 128(R10)(BX*8), AX
	MOVL (SI)(AX*1), AX
	MOVL AX, (DX)(BX*4)
	INCQ BX
	CMPQ BX, $16
	JNE  tlane16
	ADDQ $4, SI
	ADDQ $64, DX
	DECQ CX
	JNZ  tterm16
packed16:
	MOVQ c+0(FP), DI
	MOVQ b+24(FP), R13
	MOVQ k+32(FP), R8
	SHLQ $2, R8            // one B row, in bytes
	LEAQ (R8)(R8*2), R9    // three B rows
	SHLQ $6, R11           // the scratch, in bytes
	MOVQ groups+48(FP), R12

group16:
	// Z0..Z7: the sums of the group's eight columns, lanes = batch rows.
	MOVQ SP, DX
	LEAQ (DX)(R11*1), CX
	MOVQ R13, SI           // B rows 0..3 of the group
	LEAQ (R13)(R8*4), BX   // B rows 4..7
	CMPB first+56(FP), $0
	JNE  zero16
	LOADROW(8, DI, Y8); LOADROW(9, DI, Y9); LOADROW(10, DI, Y10); LOADROW(11, DI, Y11)
	LOADROW(12, DI, Y12); LOADROW(13, DI, Y13); LOADROW(14, DI, Y14); LOADROW(15, DI, Y15)
	TRANSPOSE8(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VMOVAPS Z0, Z16; VMOVAPS Z1, Z17; VMOVAPS Z2, Z18; VMOVAPS Z3, Z19
	VMOVAPS Z4, Z20; VMOVAPS Z5, Z21; VMOVAPS Z6, Z22; VMOVAPS Z7, Z23
	LOADROW(0, DI, Y8); LOADROW(1, DI, Y9); LOADROW(2, DI, Y10); LOADROW(3, DI, Y11)
	LOADROW(4, DI, Y12); LOADROW(5, DI, Y13); LOADROW(6, DI, Y14); LOADROW(7, DI, Y15)
	TRANSPOSE8(Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
	VINSERTF64X4 $1, Y16, Z0, Z0; VINSERTF64X4 $1, Y17, Z1, Z1
	VINSERTF64X4 $1, Y18, Z2, Z2; VINSERTF64X4 $1, Y19, Z3, Z3
	VINSERTF64X4 $1, Y20, Z4, Z4; VINSERTF64X4 $1, Y21, Z5, Z5
	VINSERTF64X4 $1, Y22, Z6, Z6; VINSERTF64X4 $1, Y23, Z7, Z7
	JMP  term16
zero16:
	VXORPS Z0, Z0, Z0; VXORPS Z1, Z1, Z1; VXORPS Z2, Z2, Z2; VXORPS Z3, Z3, Z3
	VXORPS Z4, Z4, Z4; VXORPS Z5, Z5, Z5; VXORPS Z6, Z6, Z6; VXORPS Z7, Z7, Z7
	// Four terms an iteration while four are left, then one.
term16:
	LEAQ 256(DX), AX
	CMPQ AX, CX
	JA   last16
	VMOVUPS (DX), Z8
	VMOVUPS 64(DX), Z9
	VMOVUPS 128(DX), Z10
	VMOVUPS 192(DX), Z11
	TERMS8(0, Z8)
	TERMS8(4, Z9)
	TERMS8(8, Z10)
	TERMS8(12, Z11)
	ADDQ $16, SI
	ADDQ $16, BX
	ADDQ $256, DX
	CMPQ DX, CX
	JNE  term16
	JMP  done16
last16:
	VMOVUPS (DX), Z8
	TERMS8(0, Z8)
	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ $64, DX
	CMPQ DX, CX
	JNE  last16
done16:

	// Stored from lane 15 down, as in abtTile8: rows 8..15 (the high
	// halves) first, then rows 0..7.
	VMOVAPS Z0, Z16; VMOVAPS Z1, Z17; VMOVAPS Z2, Z18; VMOVAPS Z3, Z19
	VMOVAPS Z4, Z20; VMOVAPS Z5, Z21; VMOVAPS Z6, Z22; VMOVAPS Z7, Z23
	VEXTRACTF64X4 $1, Z16, Y0; VEXTRACTF64X4 $1, Z17, Y1
	VEXTRACTF64X4 $1, Z18, Y2; VEXTRACTF64X4 $1, Z19, Y3
	VEXTRACTF64X4 $1, Z20, Y4; VEXTRACTF64X4 $1, Z21, Y5
	VEXTRACTF64X4 $1, Z22, Y6; VEXTRACTF64X4 $1, Z23, Y7
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	STOREROW(15, DI, Y15); STOREROW(14, DI, Y14); STOREROW(13, DI, Y13); STOREROW(12, DI, Y12)
	STOREROW(11, DI, Y11); STOREROW(10, DI, Y10); STOREROW(9, DI, Y9); STOREROW(8, DI, Y8)
	VMOVAPS Z16, Z0; VMOVAPS Z17, Z1; VMOVAPS Z18, Z2; VMOVAPS Z19, Z3
	VMOVAPS Z20, Z4; VMOVAPS Z21, Z5; VMOVAPS Z22, Z6; VMOVAPS Z23, Z7
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	STOREROW(7, DI, Y15); STOREROW(6, DI, Y14); STOREROW(5, DI, Y13); STOREROW(4, DI, Y12)
	STOREROW(3, DI, Y11); STOREROW(2, DI, Y10); STOREROW(1, DI, Y9); STOREROW(0, DI, Y8)
	ADDQ $32, DI
	LEAQ (R13)(R8*8), R13
	DECQ R12
	JNZ  group16
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
// so one CMPQ of the row count serves the jumps after it. Each quad also
// prefetches two lines of the next group's eight B rows, which follow
// this group's in memory: k/4 quads of 128 bytes cover their 32·k bytes,
// so the next group's rows are in L1 before it starts even when they
// are too short for the hardware prefetcher to ramp up (k = 192). A
// prefetch past the last group is a hint and never faults.
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
	LEAQ (R13)(R8*8), R14  // the next group's B rows
	MOVQ k+24(FP), CX
	SHRQ $2, CX
	JZ   ctail
cquad:
	PREFETCHT0 (R14)
	PREFETCHT0 64(R14)
	ADDQ $128, R14
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
