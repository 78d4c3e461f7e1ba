#include "textflag.h"

// AVX bodies of Axpy, Add and Scal over blocks·8 elements: four
// 8-lane blocks per iteration, then one at a time. Each lane does
// exactly what the portable loop does to that element — the same
// products and sums, each rounded on its own (VMULPS then VADDPS, no
// FMA) — so the results are bitwise identical.

// func axpyAVX(a float32, x, y *float32, blocks int)
// y[i] = a·x[i] + y[i]
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y0
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         blocks+24(FP), CX

axpyQuad:
	CMPQ    CX, $4
	JLT     axpyOne
	VMULPS  (SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VMULPS  64(SI), Y0, Y3
	VMULPS  96(SI), Y0, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     axpyQuad

axpyOne:
	TESTQ   CX, CX
	JZ      axpyDone
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     axpyOne

axpyDone:
	VZEROUPPER
	RET

// func addAVX(x, y *float32, blocks int)
// y[i] = y[i] + x[i]
TEXT ·addAVX(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ blocks+16(FP), CX

addQuad:
	CMPQ    CX, $4
	JLT     addOne
	VMOVUPS (DI), Y1
	VMOVUPS 32(DI), Y2
	VMOVUPS 64(DI), Y3
	VMOVUPS 96(DI), Y4
	VADDPS  (SI), Y1, Y1
	VADDPS  32(SI), Y2, Y2
	VADDPS  64(SI), Y3, Y3
	VADDPS  96(SI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     addQuad

addOne:
	TESTQ   CX, CX
	JZ      addDone
	VMOVUPS (DI), Y1
	VADDPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     addOne

addDone:
	VZEROUPPER
	RET

// func scalAVX(a float32, x *float32, blocks int)
// x[i] = x[i]·a
TEXT ·scalAVX(SB), NOSPLIT, $0-24
	VBROADCASTSS a+0(FP), Y0
	MOVQ         x+8(FP), DI
	MOVQ         blocks+16(FP), CX

scalQuad:
	CMPQ    CX, $4
	JLT     scalOne
	VMULPS  (DI), Y0, Y1
	VMULPS  32(DI), Y0, Y2
	VMULPS  64(DI), Y0, Y3
	VMULPS  96(DI), Y0, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     scalQuad

scalOne:
	TESTQ   CX, CX
	JZ      scalDone
	VMULPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JMP     scalOne

scalDone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
