#include "textflag.h"

// func gemmQuadAVX2(c *float64, ldc int, a *float64, ars, als int, b *float64, ldb, n4, k2 int)
//
// Per l pair: Y0..Y7 hold the eight broadcast A values (row r at
// Y(2r), Y(2r+1)), Y8/Y9 the two B vectors, Y10..Y13 the four C vectors
// and Y14/Y15 the products. Each C vector is updated as c += a0*b0, then
// c += a1*b1: a VMULPD and a VADDPD each, never a fused multiply-add, so
// every lane rounds exactly where the Go kernel's two statements do.
TEXT ·gemmQuadAVX2(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ als+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	MOVQ n4+56(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, CX
	LEAQ (DI)(R8*1), R12 // C rows: DI, R12, R13, R14
	LEAQ (DI)(R8*2), R13
	LEAQ (R12)(R8*2), R14
	MOVQ k2+64(FP), R8   // l pairs left

pair:
	VBROADCASTSD (SI), Y0
	VBROADCASTSD (SI)(R10*1), Y1
	LEAQ (SI)(R9*1), BX
	VBROADCASTSD (BX), Y2
	VBROADCASTSD (BX)(R10*1), Y3
	LEAQ (SI)(R9*2), BX
	VBROADCASTSD (BX), Y4
	VBROADCASTSD (BX)(R10*1), Y5
	ADDQ R9, BX
	VBROADCASTSD (BX), Y6
	VBROADCASTSD (BX)(R10*1), Y7
	LEAQ (DX)(R11*1), BX // B row l+1
	XORQ AX, AX          // column byte offset

col:
	VMOVUPD (DX)(AX*1), Y8
	VMOVUPD (BX)(AX*1), Y9

	VMOVUPD (DI)(AX*1), Y10
	VMULPD  Y8, Y0, Y14
	VADDPD  Y14, Y10, Y10
	VMULPD  Y9, Y1, Y15
	VADDPD  Y15, Y10, Y10
	VMOVUPD Y10, (DI)(AX*1)

	VMOVUPD (R12)(AX*1), Y11
	VMULPD  Y8, Y2, Y14
	VADDPD  Y14, Y11, Y11
	VMULPD  Y9, Y3, Y15
	VADDPD  Y15, Y11, Y11
	VMOVUPD Y11, (R12)(AX*1)

	VMOVUPD (R13)(AX*1), Y12
	VMULPD  Y8, Y4, Y14
	VADDPD  Y14, Y12, Y12
	VMULPD  Y9, Y5, Y15
	VADDPD  Y15, Y12, Y12
	VMOVUPD Y12, (R13)(AX*1)

	VMOVUPD (R14)(AX*1), Y13
	VMULPD  Y8, Y6, Y14
	VADDPD  Y14, Y13, Y13
	VMULPD  Y9, Y7, Y15
	VADDPD  Y15, Y13, Y13
	VMOVUPD Y13, (R14)(AX*1)

	ADDQ $32, AX
	CMPQ AX, CX
	JB   col

	LEAQ (SI)(R10*2), SI // next l pair of A
	LEAQ (DX)(R11*2), DX // next l pair of B
	DECQ R8
	JNZ  pair
	VZEROUPPER
	RET
