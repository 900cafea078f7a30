//go:build !purego

#include "textflag.h"

// The row-wise kernels: eight lanes a vector, 32 elements a round, then
// eight a round, then one at a time. Each element takes the Go loop's
// operations (rowops.go) with their operands in the order the compiled
// loop has them — a[i] + b[i], b[i]·s then that product + a[i], a[i]·s —
// so even the payload of a NaN is the loop's (FuzzRowOps checks it).

// func addAVX(dst, a, b *float32, n int)
TEXT ·addAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $5, BX
	JZ   add8
add32:
	VMOVUPS (SI)(AX*4), Y0; VMOVUPS 32(SI)(AX*4), Y1
	VMOVUPS 64(SI)(AX*4), Y2; VMOVUPS 96(SI)(AX*4), Y3
	VADDPS (DX)(AX*4), Y0, Y0; VADDPS 32(DX)(AX*4), Y1, Y1
	VADDPS 64(DX)(AX*4), Y2, Y2; VADDPS 96(DX)(AX*4), Y3, Y3
	VMOVUPS Y0, (DI)(AX*4); VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4); VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	DECQ BX
	JNZ  add32
add8:
	MOVQ CX, BX
	SUBQ AX, BX
	SHRQ $3, BX
	JZ   add1
add8loop:
	VMOVUPS (SI)(AX*4), Y0
	VADDPS (DX)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	DECQ BX
	JNZ  add8loop
add1:
	CMPQ AX, CX
	JEQ  adddone
add1loop:
	VMOVSS (SI)(AX*4), X0
	VADDSS (DX)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JNE  add1loop
adddone:
	VZEROUPPER
	RET

// SCALED is dst = (b·s, rounded) + a for one vector or scalar at
// offset o: s in sv (Y4 or X4), the sum in p.
#define SCALED(o, sv, p, mov, mul, add) \
	mov o(DX)(AX*4), p; mul sv, p, p; add o(SI)(AX*4), p, p; mov p, o(DI)(AX*4)

// func addScaledAVX(dst, a, b *float32, n int, s float32)
TEXT ·addScaledAVX(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VBROADCASTSS s+32(FP), Y4
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $5, BX
	JZ   scaled8
scaled32:
	SCALED(0, Y4, Y0, VMOVUPS, VMULPS, VADDPS)
	SCALED(32, Y4, Y1, VMOVUPS, VMULPS, VADDPS)
	SCALED(64, Y4, Y2, VMOVUPS, VMULPS, VADDPS)
	SCALED(96, Y4, Y3, VMOVUPS, VMULPS, VADDPS)
	ADDQ $32, AX
	DECQ BX
	JNZ  scaled32
scaled8:
	MOVQ CX, BX
	SUBQ AX, BX
	SHRQ $3, BX
	JZ   scaled1
scaled8loop:
	SCALED(0, Y4, Y0, VMOVUPS, VMULPS, VADDPS)
	ADDQ $8, AX
	DECQ BX
	JNZ  scaled8loop
scaled1:
	CMPQ AX, CX
	JEQ  scaleddone
scaled1loop:
	SCALED(0, X4, X0, VMOVSS, VMULSS, VADDSS)
	INCQ AX
	CMPQ AX, CX
	JNE  scaled1loop
scaleddone:
	VZEROUPPER
	RET

// func scaleAVX(dst, a *float32, n int, s float32)
TEXT ·scaleAVX(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS s+24(FP), Y4
	XORQ AX, AX
	MOVQ CX, BX
	SHRQ $5, BX
	JZ   scale8
scale32:
	VMOVUPS (SI)(AX*4), Y0; VMOVUPS 32(SI)(AX*4), Y1
	VMOVUPS 64(SI)(AX*4), Y2; VMOVUPS 96(SI)(AX*4), Y3
	VMULPS Y4, Y0, Y0; VMULPS Y4, Y1, Y1; VMULPS Y4, Y2, Y2; VMULPS Y4, Y3, Y3
	VMOVUPS Y0, (DI)(AX*4); VMOVUPS Y1, 32(DI)(AX*4)
	VMOVUPS Y2, 64(DI)(AX*4); VMOVUPS Y3, 96(DI)(AX*4)
	ADDQ $32, AX
	DECQ BX
	JNZ  scale32
scale8:
	MOVQ CX, BX
	SUBQ AX, BX
	SHRQ $3, BX
	JZ   scale1
scale8loop:
	VMOVUPS (SI)(AX*4), Y0
	VMULPS Y4, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	DECQ BX
	JNZ  scale8loop
scale1:
	CMPQ AX, CX
	JEQ  scaledone
scale1loop:
	VMOVSS (SI)(AX*4), X0
	VMULSS X4, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JNE  scale1loop
scaledone:
	VZEROUPPER
	RET
