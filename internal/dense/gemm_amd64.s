#include "textflag.h"

// func gemmRowAVX(c, a, b *float32, k, n, strips int)
//
// Computes the first 8·strips columns of one output row,
// c[j] = +0 + a[0]·b[0,j] + a[1]·b[1,j] + … + a[k-1]·b[k-1,j], where b
// is row-major with n columns. Each 8-column strip stays in one YMM
// accumulator for the whole k loop: broadcast a[k], multiply it by the
// b strip, then add into the accumulator — separate instructions, no
// FMA, in k order — so every lane rounds exactly like the scalar
// crow[j] += a[k]*b[k][j]. The zero skip is a mask: where a[k] is ±0
// the product is replaced by +0, and adding +0 leaves the accumulator's
// bits unchanged (it starts at +0 and so can never become -0), which is
// exactly what skipping the term does, even when b holds Inf or NaN.
// A NaN a[k] compares unequal to zero and is kept. Strips are
// register-blocked four, then two, then one at a time; blocking only
// shares the broadcast and the loop overhead, it never reorders a
// lane's sum.
TEXT ·gemmRowAVX(SB), NOSPLIT, $0-48
	MOVQ   c+0(FP), DI
	MOVQ   a+8(FP), R9
	MOVQ   b+16(FP), SI
	MOVQ   k+24(FP), CX
	MOVQ   n+32(FP), R13
	SHLQ   $2, R13                // b row stride in bytes
	MOVQ   strips+40(FP), DX
	VXORPS Y15, Y15, Y15          // +0, the comparand of the zero mask

quad:
	CMPQ   DX, $4
	JLT    pair
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   R11, R11
	MOVQ   SI, R12
	TESTQ  CX, CX
	JZ     quadStore

quadLoop:
	VBROADCASTSS (R9)(R11*4), Y4
	VCMPPS       $4, Y15, Y4, Y9  // NEQ_UQ: all ones unless a[k] is ±0
	VMULPS       (R12), Y4, Y5
	VMULPS       32(R12), Y4, Y6
	VMULPS       64(R12), Y4, Y7
	VMULPS       96(R12), Y4, Y8
	VANDPS       Y9, Y5, Y5
	VANDPS       Y9, Y6, Y6
	VANDPS       Y9, Y7, Y7
	VANDPS       Y9, Y8, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         R13, R12
	INCQ         R11
	CMPQ         R11, CX
	JLT          quadLoop

quadStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $4, DX
	JMP     quad

pair:
	CMPQ   DX, $2
	JLT    single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ   R11, R11
	MOVQ   SI, R12
	TESTQ  CX, CX
	JZ     pairStore

pairLoop:
	VBROADCASTSS (R9)(R11*4), Y4
	VCMPPS       $4, Y15, Y4, Y9
	VMULPS       (R12), Y4, Y5
	VMULPS       32(R12), Y4, Y6
	VANDPS       Y9, Y5, Y5
	VANDPS       Y9, Y6, Y6
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	ADDQ         R13, R12
	INCQ         R11
	CMPQ         R11, CX
	JLT          pairLoop

pairStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $2, DX

single:
	TESTQ  DX, DX
	JZ     done
	VXORPS Y0, Y0, Y0
	XORQ   R11, R11
	MOVQ   SI, R12
	TESTQ  CX, CX
	JZ     singleStore

singleLoop:
	VBROADCASTSS (R9)(R11*4), Y4
	VCMPPS       $4, Y15, Y4, Y9
	VMULPS       (R12), Y4, Y5
	VANDPS       Y9, Y5, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         R13, R12
	INCQ         R11
	CMPQ         R11, CX
	JLT          singleLoop

singleStore:
	VMOVUPS Y0, (DI)

done:
	VZEROUPPER
	RET
