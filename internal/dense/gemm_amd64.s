#include "textflag.h"

// func gemmRowsAVX(c, a, b *float32, rows, k, n, strips int, floor float32)
//
// Computes the first 8·strips columns of rows consecutive output rows,
// c[i,j] = +0 + f(a[i,0])·b[0,j] + … + f(a[i,k-1])·b[k-1,j], where a is
// row-major with k columns, b and c row-major with n columns, and
// f(x) = max(floor, x) is one VMAXPS with floor as its first source, so
// a NaN or a tie returns x itself: floor = -Inf makes f the identity on
// every float, floor = +0 makes it ReLU with Matrix.ReLU's exact bits.
// The caller guarantees every entry of b is finite. A term whose f(a)
// is ±0 then adds ±0 to an accumulator that starts at +0 and so can
// never be -0, which leaves its bits as skipping the term would, so no
// zero mask is needed.
//
// Each 8-column strip stays in one YMM accumulator for the whole k
// loop: broadcast f(a[i,k]), multiply it by the b strip (a first, as
// in blas.Axpy), then add the product to the accumulator (product
// first, as in blas.Axpy) — separate instructions, no FMA, in k order —
// so every lane rounds, and picks its NaN operand, exactly like
// mulRows' axpy. Rows are done two at a time, each b strip load shared
// by both; an odd last row runs the same block with both row pointers
// on it, storing the same bits twice. Strips are register-blocked
// four (8 accumulators), then two, then one at a time; blocking only
// shares loads and loop overhead, it never reorders a lane's sum.
TEXT ·gemmRowsAVX(SB), NOSPLIT, $0-60
	MOVQ         c+0(FP), AX           // c row of the current pair
	MOVQ         a+8(FP), R9           // a row of the current pair
	MOVQ         rows+24(FP), BX
	MOVQ         k+32(FP), CX
	MOVQ         n+40(FP), R13
	SHLQ         $2, R13               // b and c row stride in bytes
	VBROADCASTSS floor+56(FP), Y15

rowPair:
	TESTQ BX, BX
	JZ    done
	MOVQ  AX, DI                 // c cursor, row 0
	MOVQ  R9, R10
	MOVQ  AX, R8
	CMPQ  BX, $1
	JEQ   rowsSet
	LEAQ  (R9)(CX*4), R10        // a row 1
	ADDQ  R13, R8                // c cursor, row 1

rowsSet:
	MOVQ b+16(FP), SI            // b strip cursor
	MOVQ strips+48(FP), DX

quad:
	CMPQ   DX, $4
	JLT    pair
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   R11, R11
	MOVQ   SI, R12
	TESTQ  CX, CX
	JZ     quadStore

quadLoop:
	VBROADCASTSS (R9)(R11*4), Y8
	VBROADCASTSS (R10)(R11*4), Y9
	VMAXPS       Y8, Y15, Y8
	VMAXPS       Y9, Y15, Y9
	VMULPS       (R12), Y8, Y10
	VMULPS       (R12), Y9, Y11
	VMULPS       32(R12), Y8, Y12
	VMULPS       32(R12), Y9, Y13
	VADDPS       Y0, Y10, Y0
	VADDPS       Y4, Y11, Y4
	VADDPS       Y1, Y12, Y1
	VADDPS       Y5, Y13, Y5
	VMULPS       64(R12), Y8, Y10
	VMULPS       64(R12), Y9, Y11
	VMULPS       96(R12), Y8, Y12
	VMULPS       96(R12), Y9, Y13
	VADDPS       Y2, Y10, Y2
	VADDPS       Y6, Y11, Y6
	VADDPS       Y3, Y12, Y3
	VADDPS       Y7, Y13, Y7
	ADDQ         R13, R12
	INCQ         R11
	CMPQ         R11, CX
	JLT          quadLoop

quadStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (R8)
	VMOVUPS Y5, 32(R8)
	VMOVUPS Y6, 64(R8)
	VMOVUPS Y7, 96(R8)
	ADDQ    $128, DI
	ADDQ    $128, R8
	ADDQ    $128, SI
	SUBQ    $4, DX
	JMP     quad

pair:
	CMPQ   DX, $2
	JLT    single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	XORQ   R11, R11
	MOVQ   SI, R12
	TESTQ  CX, CX
	JZ     pairStore

pairLoop:
	VBROADCASTSS (R9)(R11*4), Y8
	VBROADCASTSS (R10)(R11*4), Y9
	VMAXPS       Y8, Y15, Y8
	VMAXPS       Y9, Y15, Y9
	VMULPS       (R12), Y8, Y10
	VMULPS       (R12), Y9, Y11
	VMULPS       32(R12), Y8, Y12
	VMULPS       32(R12), Y9, Y13
	VADDPS       Y0, Y10, Y0
	VADDPS       Y4, Y11, Y4
	VADDPS       Y1, Y12, Y1
	VADDPS       Y5, Y13, Y5
	ADDQ         R13, R12
	INCQ         R11
	CMPQ         R11, CX
	JLT          pairLoop

pairStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y4, (R8)
	VMOVUPS Y5, 32(R8)
	ADDQ    $64, DI
	ADDQ    $64, R8
	ADDQ    $64, SI
	SUBQ    $2, DX

single:
	TESTQ  DX, DX
	JZ     nextPair
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	XORQ   R11, R11
	MOVQ   SI, R12
	TESTQ  CX, CX
	JZ     singleStore

singleLoop:
	VBROADCASTSS (R9)(R11*4), Y8
	VBROADCASTSS (R10)(R11*4), Y9
	VMAXPS       Y8, Y15, Y8
	VMAXPS       Y9, Y15, Y9
	VMULPS       (R12), Y8, Y10
	VMULPS       (R12), Y9, Y11
	VADDPS       Y0, Y10, Y0
	VADDPS       Y4, Y11, Y4
	ADDQ         R13, R12
	INCQ         R11
	CMPQ         R11, CX
	JLT          singleLoop

singleStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (R8)

nextPair:
	CMPQ BX, $1
	JEQ  done
	LEAQ (AX)(R13*2), AX
	LEAQ (R9)(CX*8), R9
	SUBQ $2, BX
	JMP  rowPair

done:
	VZEROUPPER
	RET
