//go:build amd64 && !race

#include "textflag.h"

// The packed leaves (leaves.go): SSE2 only, two float64 lanes per XMM
// register, unaligned loads and stores. Each lane performs the Go loop's
// operation with the Go loop's operand order (x = a*b is MULPD b into a,
// dst += src is ADDPD src into dst), and nothing here fuses a multiply into an
// add, so every result is bit-identical to the scalar loop's. Lengths are even.

// func mulPacked(dst, a, b []float64)
TEXT ·mulPacked(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   mulpair

mulloop:
	MOVUPD (SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MOVUPD (DX)(AX*8), X2
	MOVUPD 16(DX)(AX*8), X3
	MULPD  X2, X0
	MULPD  X3, X1
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    mulloop

mulpair:
	CMPQ   AX, CX
	JGE    muldone
	MOVUPD (SI)(AX*8), X0
	MOVUPD (DX)(AX*8), X2
	MULPD  X2, X0
	MOVUPD X0, (DI)(AX*8)

muldone:
	RET

// func scalePacked(dst, a []float64, f float64)
TEXT ·scalePacked(SB), NOSPLIT, $0-56
	MOVQ     dst_base+0(FP), DI
	MOVQ     dst_len+8(FP), CX
	MOVQ     a_base+24(FP), SI
	MOVSD    f+48(FP), X4
	UNPCKLPD X4, X4
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-4, BX
	JZ       scalepair

scaleloop:
	MOVUPD (SI)(AX*8), X0
	MOVUPD 16(SI)(AX*8), X1
	MULPD  X4, X0
	MULPD  X4, X1
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    scaleloop

scalepair:
	CMPQ   AX, CX
	JGE    scaledone
	MOVUPD (SI)(AX*8), X0
	MULPD  X4, X0
	MOVUPD X0, (DI)(AX*8)

scaledone:
	RET

// func addPacked(dst, src []float64)
TEXT ·addPacked(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX
	JZ   addpair

addloop:
	MOVUPD (DI)(AX*8), X0
	MOVUPD 16(DI)(AX*8), X1
	MOVUPD (SI)(AX*8), X2
	MOVUPD 16(SI)(AX*8), X3
	ADDPD  X2, X0
	ADDPD  X3, X1
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X1, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    addloop

addpair:
	CMPQ   AX, CX
	JGE    adddone
	MOVUPD (DI)(AX*8), X0
	MOVUPD (SI)(AX*8), X2
	ADDPD  X2, X0
	MOVUPD X0, (DI)(AX*8)

adddone:
	RET

// func fillPacked(dst []float64, f float64)
TEXT ·fillPacked(SB), NOSPLIT, $0-32
	MOVQ     dst_base+0(FP), DI
	MOVQ     dst_len+8(FP), CX
	MOVSD    f+24(FP), X0
	UNPCKLPD X0, X0
	XORQ     AX, AX
	MOVQ     CX, BX
	ANDQ     $-4, BX
	JZ       fillpair

fillloop:
	MOVUPD X0, (DI)(AX*8)
	MOVUPD X0, 16(DI)(AX*8)
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    fillloop

fillpair:
	CMPQ   AX, CX
	JGE    filldone
	MOVUPD X0, (DI)(AX*8)

filldone:
	RET

// func divRatioPacked(num, den []float64)
//
// x/0 = 0: the quotient is ANDed with the mask of lanes whose denominator
// compares unequal to zero (CMPPD predicate 4, NEQ_UQ: true for NaN as well,
// so a NaN denominator divides as in the Go loop, and ±0 give +0).
TEXT ·divRatioPacked(SB), NOSPLIT, $0-48
	MOVQ  num_base+0(FP), DI
	MOVQ  num_len+8(FP), CX
	MOVQ  den_base+24(FP), SI
	XORQ  AX, AX
	XORPD X7, X7

divloop:
	CMPQ   AX, CX
	JGE    divdone
	MOVUPD (DI)(AX*8), X0
	MOVUPD (SI)(AX*8), X1
	MOVAPD X0, X2
	DIVPD  X1, X2
	MOVAPD X7, X3
	CMPPD  X1, X3, $4
	ANDPD  X3, X2
	MOVUPD X2, (DI)(AX*8)
	MOVUPD X0, (SI)(AX*8)
	ADDQ   $2, AX
	JMP    divloop

divdone:
	RET

// func mulAdjacentPacked(dst, src, q []float64, tile []int32)
//
// dst[k:k+2] = src[k:k+2] * q[t:t+2], t = tile[k], k even.
TEXT ·mulAdjacentPacked(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ tile_base+72(FP), R8
	XORQ AX, AX
	MOVQ CX, R9
	ANDQ $-4, R9
	JZ   adjpair

adjloop:
	MOVLQSX (R8)(AX*4), BX
	MOVLQSX 8(R8)(AX*4), R10
	MOVUPD  (SI)(AX*8), X0
	MOVUPD  16(SI)(AX*8), X2
	MOVUPD  (DX)(BX*8), X1
	MOVUPD  (DX)(R10*8), X3
	MULPD   X1, X0
	MULPD   X3, X2
	MOVUPD  X0, (DI)(AX*8)
	MOVUPD  X2, 16(DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R9
	JLT     adjloop

adjpair:
	CMPQ    AX, CX
	JGE     adjdone
	MOVLQSX (R8)(AX*4), BX
	MOVUPD  (SI)(AX*8), X0
	MOVUPD  (DX)(BX*8), X1
	MULPD   X1, X0
	MOVUPD  X0, (DI)(AX*8)

adjdone:
	RET

// func mulTwinPacked(dst, src, q []float64, tile []int32)
//
// dst[k:k+2] = src[k:k+2] * q[t], t = tile[k], k even.
TEXT ·mulTwinPacked(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ tile_base+72(FP), R8
	XORQ AX, AX
	MOVQ CX, R9
	ANDQ $-4, R9
	JZ   twinpair

twinloop:
	MOVLQSX  (R8)(AX*4), BX
	MOVLQSX  8(R8)(AX*4), R10
	MOVUPD   (SI)(AX*8), X0
	MOVUPD   16(SI)(AX*8), X2
	MOVSD    (DX)(BX*8), X1
	MOVSD    (DX)(R10*8), X3
	UNPCKLPD X1, X1
	UNPCKLPD X3, X3
	MULPD    X1, X0
	MULPD    X3, X2
	MOVUPD   X0, (DI)(AX*8)
	MOVUPD   X2, 16(DI)(AX*8)
	ADDQ     $4, AX
	CMPQ     AX, R9
	JLT      twinloop

twinpair:
	CMPQ     AX, CX
	JGE      twindone
	MOVLQSX  (R8)(AX*4), BX
	MOVUPD   (SI)(AX*8), X0
	MOVSD    (DX)(BX*8), X1
	UNPCKLPD X1, X1
	MULPD    X1, X0
	MOVUPD   X0, (DI)(AX*8)

twindone:
	RET

// func addAdjacentPacked(dst, src []float64, tile []int32)
//
// dst[t:t+2] += src[k:k+2], t = tile[k], k even, in k order. The two cells
// stay in X0 while consecutive pairs name the same t, and go back to memory
// before another pair is read, so each cell takes its terms in k order.
TEXT ·addAdjacentPacked(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ tile_base+48(FP), R8
	TESTQ CX, CX
	JZ   sumadjdone
	MOVLQSX (R8), DX
	MOVUPD  (DI)(DX*8), X0
	XORQ    AX, AX

sumadjloop:
	MOVLQSX (R8)(AX*4), BX
	CMPQ    BX, DX
	JEQ     sumadjsame
	MOVUPD  X0, (DI)(DX*8)
	MOVQ    BX, DX
	MOVUPD  (DI)(DX*8), X0

sumadjsame:
	MOVUPD (SI)(AX*8), X1
	ADDPD  X1, X0
	ADDQ   $2, AX
	CMPQ   AX, CX
	JLT    sumadjloop
	MOVUPD X0, (DI)(DX*8)

sumadjdone:
	RET

// func addQuadPacked(dst, src []float64, tile []int32)
//
// dst[t] = dst[t] + src[k] + src[k+1] and dst[t+1] = dst[t+1] + src[k+2] +
// src[k+3], t = tile[k], k a multiple of 4: the two cells ride in one
// register, each taking its terms left to right.
TEXT ·addQuadPacked(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ tile_base+48(FP), R8
	XORQ AX, AX

quadloop:
	CMPQ     AX, CX
	JGE      quaddone
	MOVLQSX  (R8)(AX*4), BX
	MOVUPD   (SI)(AX*8), X1
	MOVUPD   16(SI)(AX*8), X2
	MOVAPD   X1, X3
	UNPCKLPD X2, X3
	UNPCKHPD X2, X1
	MOVUPD   (DI)(BX*8), X0
	ADDPD    X3, X0
	ADDPD    X1, X0
	MOVUPD   X0, (DI)(BX*8)
	ADDQ     $4, AX
	JMP      quadloop

quaddone:
	RET
