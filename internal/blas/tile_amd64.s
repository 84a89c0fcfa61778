//go:build !purego

#include "textflag.h"

// SSE2 forms of the tile kernels' inner loops (tile_generic.go holds the
// Go forms). Each lane does the Go loop's IEEE operations in the Go
// loop's order: a MULPD then an ADDPD, never a fused multiply-add, the
// terms of an update added left to right, and a dot product's sum
// started at +0 and added to in l order. Loads are MOVUPD or MOVSD/MOVHPD,
// so no operand needs 16-byte alignment.

// func axpy4(y, x0, x1, x2, x3 []float64, m0, m1, m2, m3 float64)
TEXT ·axpy4(SB), NOSPLIT, $0-152
	MOVQ     y_base+0(FP), DI
	MOVQ     y_len+8(FP), CX
	MOVQ     x0_base+24(FP), R8
	MOVQ     x1_base+48(FP), R9
	MOVQ     x2_base+72(FP), R10
	MOVQ     x3_base+96(FP), R11
	MOVSD    m0+120(FP), X0
	UNPCKLPD X0, X0
	MOVSD    m1+128(FP), X1
	UNPCKLPD X1, X1
	MOVSD    m2+136(FP), X2
	UNPCKLPD X2, X2
	MOVSD    m3+144(FP), X3
	UNPCKLPD X3, X3
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-4, BX

axpy4quad: // y[i:i+4] = y[i:i+4] + m0·x0[i:i+4] + … + m3·x3[i:i+4]
	CMPQ   AX, BX
	JGE    axpy4pair
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MOVUPD (R8)(AX*8), X6
	MOVUPD 16(R8)(AX*8), X7
	MULPD  X0, X6
	MULPD  X0, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD (R9)(AX*8), X6
	MOVUPD 16(R9)(AX*8), X7
	MULPD  X1, X6
	MULPD  X1, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD (R10)(AX*8), X6
	MOVUPD 16(R10)(AX*8), X7
	MULPD  X2, X6
	MULPD  X2, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD (R11)(AX*8), X6
	MOVUPD 16(R11)(AX*8), X7
	MULPD  X3, X6
	MULPD  X3, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    axpy4quad

axpy4pair: // two rows left or three
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $2
	JL     axpy4single
	MOVUPD (DI)(AX*8), X4
	MOVUPD (R8)(AX*8), X6
	MULPD  X0, X6
	ADDPD  X6, X4
	MOVUPD (R9)(AX*8), X6
	MULPD  X1, X6
	ADDPD  X6, X4
	MOVUPD (R10)(AX*8), X6
	MULPD  X2, X6
	ADDPD  X6, X4
	MOVUPD (R11)(AX*8), X6
	MULPD  X3, X6
	ADDPD  X6, X4
	MOVUPD X4, (DI)(AX*8)
	ADDQ   $2, AX

axpy4single: // one row left
	CMPQ  AX, CX
	JGE   axpy4done
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD (R9)(AX*8), X6
	MULSD X1, X6
	ADDSD X6, X4
	MOVSD (R10)(AX*8), X6
	MULSD X2, X6
	ADDSD X6, X4
	MOVSD (R11)(AX*8), X6
	MULSD X3, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)

axpy4done:
	RET

// func axpy1(y, x []float64, m float64)
TEXT ·axpy1(SB), NOSPLIT, $0-56
	MOVQ     y_base+0(FP), DI
	MOVQ     y_len+8(FP), CX
	MOVQ     x_base+24(FP), R8
	MOVSD    m+48(FP), X0
	UNPCKLPD X0, X0
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-4, BX

axpy1quad: // y[i:i+4] += m·x[i:i+4]
	CMPQ   AX, BX
	JGE    axpy1pair
	MOVUPD (DI)(AX*8), X4
	MOVUPD 16(DI)(AX*8), X5
	MOVUPD (R8)(AX*8), X6
	MOVUPD 16(R8)(AX*8), X7
	MULPD  X0, X6
	MULPD  X0, X7
	ADDPD  X6, X4
	ADDPD  X7, X5
	MOVUPD X4, (DI)(AX*8)
	MOVUPD X5, 16(DI)(AX*8)
	ADDQ   $4, AX
	JMP    axpy1quad

axpy1pair:
	MOVQ   CX, BX
	SUBQ   AX, BX
	CMPQ   BX, $2
	JL     axpy1single
	MOVUPD (DI)(AX*8), X4
	MOVUPD (R8)(AX*8), X6
	MULPD  X0, X6
	ADDPD  X6, X4
	MOVUPD X4, (DI)(AX*8)
	ADDQ   $2, AX

axpy1single:
	CMPQ  AX, CX
	JGE   axpy1done
	MOVSD (DI)(AX*8), X4
	MOVSD (R8)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)

axpy1done:
	RET

// func dot8(s *[8]float64, a []float64, lda int, x []float64)
//
// Lane pairs (s0,s1), (s2,s3), (s4,s5), (s6,s7) sit in X0–X3, and
// columns 0–7 of a start at SI, R8–R13 and BX.
TEXT ·dot8(SB), NOSPLIT, $0-64
	MOVQ  a_base+8(FP), SI
	MOVQ  lda+32(FP), DX
	SHLQ  $3, DX
	MOVQ  x_base+40(FP), DI
	MOVQ  x_len+48(FP), CX
	LEAQ  (SI)(DX*1), R8
	LEAQ  (SI)(DX*2), R9
	LEAQ  (R8)(DX*2), R10
	LEAQ  (R9)(DX*2), R11
	LEAQ  (R10)(DX*2), R12
	LEAQ  (R11)(DX*2), R13
	LEAQ  (R12)(DX*2), BX
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    dot8done

dot8loop: // s_c += a_c[l]·x[l] for c = 0…7
	MOVSD    (DI)(AX*8), X8
	UNPCKLPD X8, X8
	MOVSD    (SI)(AX*8), X4
	MOVHPD   (R8)(AX*8), X4
	MULPD    X8, X4
	ADDPD    X4, X0
	MOVSD    (R9)(AX*8), X5
	MOVHPD   (R10)(AX*8), X5
	MULPD    X8, X5
	ADDPD    X5, X1
	MOVSD    (R11)(AX*8), X6
	MOVHPD   (R12)(AX*8), X6
	MULPD    X8, X6
	ADDPD    X6, X2
	MOVSD    (R13)(AX*8), X7
	MOVHPD   (BX)(AX*8), X7
	MULPD    X8, X7
	ADDPD    X7, X3
	INCQ     AX
	CMPQ     AX, CX
	JL       dot8loop

dot8done:
	MOVQ   s+0(FP), AX
	MOVUPD X0, (AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	RET
