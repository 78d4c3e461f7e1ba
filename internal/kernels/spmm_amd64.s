#include "textflag.h"

// func spmmRowAVX(c, b *float32, cols *int32, vals, right *float32, nnz, n, strips int, left float32)
//
// Computes the first 8·strips columns of one CSR output row,
// c[j] = left · (+0 + v[0]·b[cols[0],j] + … + v[nnz-1]·b[cols[nnz-1],j]),
// where v[k] = vals[k]·right[cols[k]], or vals[k] when right is nil, and
// b is row-major with n columns. Each 8-column strip stays in one YMM
// accumulator across all of the row's nonzeros and is stored once:
// broadcast v[k], multiply it by the b strip, then add into the
// accumulator — separate instructions, no FMA, in stored nonzero order —
// so every lane rounds exactly like the portable loop's
// crow[j] += v·b[col][j]. Its v == 1 branch (crow[j] += b[col][j]) is
// the same sum, since 1·x == x. The zero skip is a mask: where v[k] is
// ±0 the product is replaced by +0, and adding +0 leaves the
// accumulator's bits unchanged (it starts at +0 and so can never become
// -0), which is exactly what skipping the term does, even when b holds
// Inf or NaN. A NaN v[k] compares unequal to zero and is kept. The
// caller passes left = 1 for no left diagonal, which is exact for the
// same reason. Strips are register-blocked four, then two, then one at
// a time; blocking only shares the loads of cols and vals and the loop
// overhead, it never reorders a lane's sum.
TEXT ·spmmRowAVX(SB), NOSPLIT, $0-68
	MOVQ         c+0(FP), DI
	MOVQ         b+8(FP), SI
	MOVQ         cols+16(FP), R8
	MOVQ         vals+24(FP), R9
	MOVQ         right+32(FP), R10
	MOVQ         nnz+40(FP), CX
	MOVQ         n+48(FP), R13
	SHLQ         $2, R13                // b row stride in bytes
	MOVQ         strips+56(FP), DX
	VBROADCASTSS left+64(FP), Y14
	VXORPS       Y15, Y15, Y15          // +0, the comparand of the zero mask

quad:
	CMPQ   DX, $4
	JLT    pair
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   R11, R11
	TESTQ  CX, CX
	JZ     quadStore

quadLoop:
	MOVL         (R8)(R11*4), AX        // cols[k], non-negative: zero-extended
	VBROADCASTSS (R9)(R11*4), Y4
	TESTQ        R10, R10
	JZ           quadValue
	VBROADCASTSS (R10)(AX*4), Y10
	VMULPS       Y10, Y4, Y4            // vals[k]·right[col]

quadValue:
	IMULQ        R13, AX                // byte offset of row col
	VCMPPS       $4, Y15, Y4, Y9        // NEQ_UQ: all ones unless v is ±0
	VMULPS       (SI)(AX*1), Y4, Y5
	VMULPS       32(SI)(AX*1), Y4, Y6
	VMULPS       64(SI)(AX*1), Y4, Y7
	VMULPS       96(SI)(AX*1), Y4, Y8
	VANDPS       Y9, Y5, Y5
	VANDPS       Y9, Y6, Y6
	VANDPS       Y9, Y7, Y7
	VANDPS       Y9, Y8, Y8
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	INCQ         R11
	CMPQ         R11, CX
	JLT          quadLoop

quadStore:
	VMULPS  Y14, Y0, Y0
	VMULPS  Y14, Y1, Y1
	VMULPS  Y14, Y2, Y2
	VMULPS  Y14, Y3, Y3
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
	TESTQ  CX, CX
	JZ     pairStore

pairLoop:
	MOVL         (R8)(R11*4), AX
	VBROADCASTSS (R9)(R11*4), Y4
	TESTQ        R10, R10
	JZ           pairValue
	VBROADCASTSS (R10)(AX*4), Y10
	VMULPS       Y10, Y4, Y4

pairValue:
	IMULQ        R13, AX
	VCMPPS       $4, Y15, Y4, Y9
	VMULPS       (SI)(AX*1), Y4, Y5
	VMULPS       32(SI)(AX*1), Y4, Y6
	VANDPS       Y9, Y5, Y5
	VANDPS       Y9, Y6, Y6
	VADDPS       Y5, Y0, Y0
	VADDPS       Y6, Y1, Y1
	INCQ         R11
	CMPQ         R11, CX
	JLT          pairLoop

pairStore:
	VMULPS  Y14, Y0, Y0
	VMULPS  Y14, Y1, Y1
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
	TESTQ  CX, CX
	JZ     singleStore

singleLoop:
	MOVL         (R8)(R11*4), AX
	VBROADCASTSS (R9)(R11*4), Y4
	TESTQ        R10, R10
	JZ           singleValue
	VBROADCASTSS (R10)(AX*4), Y10
	VMULPS       Y10, Y4, Y4

singleValue:
	IMULQ        R13, AX
	VCMPPS       $4, Y15, Y4, Y9
	VMULPS       (SI)(AX*1), Y4, Y5
	VANDPS       Y9, Y5, Y5
	VADDPS       Y5, Y0, Y0
	INCQ         R11
	CMPQ         R11, CX
	JLT          singleLoop

singleStore:
	VMULPS  Y14, Y0, Y0
	VMOVUPS Y0, (DI)

done:
	VZEROUPPER
	RET
