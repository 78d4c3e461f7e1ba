#include "textflag.h"

// The float32 1.0 spmmRowsAVX scales by when there is no left diagonal.
DATA spmmOne<>+0(SB)/4, $0x3f800000
GLOBL spmmOne<>(SB), RODATA|NOPTR, $4

// func spmmRowsAVX(c, b *float32, rowptr, cols *int32, vals, right, left *float32, lo, hi, n, strips int)
//
// Computes the first 8·strips columns of CSR output rows [lo, hi),
// c[i,j] = left[i] · (+0 + v[0]·b[cols[0],j] + … + v[m-1]·b[cols[m-1],j])
// over row i's nonzeros rowptr[i] ≤ k < rowptr[i+1], where
// v[k] = vals[k]·right[cols[k]], or vals[k] when right is nil, and c
// and b are row-major with n columns. left[i] is 1, from spmmOne, when
// left is nil. The loop over rows lives here so a whole range costs one
// call; the per-row body is unchanged. Each 8-column strip stays in one
// YMM accumulator across all of the row's nonzeros and is stored once:
// broadcast v[k], multiply it by the b strip, then add into the
// accumulator — separate instructions, no FMA, in stored nonzero order —
// so every lane rounds exactly like the portable loop's
// crow[j] += v·b[col][j]. Its v == 1 branch (crow[j] += b[col][j]) is
// the same sum, since 1·x == x. The zero skip is a mask: where v[k] is
// ±0 the product is replaced by +0, and adding +0 leaves the
// accumulator's bits unchanged (it starts at +0 and so can never become
// -0), which is exactly what skipping the term does, even when b holds
// Inf or NaN. A NaN v[k] compares unequal to zero and is kept. Scaling
// by 1 when there is no left diagonal is exact for the same reason.
// Strips are register-blocked four, then two, then one at a time;
// blocking only shares the loads of cols and vals and the loop
// overhead, it never reorders a lane's sum.
TEXT ·spmmRowsAVX(SB), NOSPLIT, $0-88
	MOVQ   rowptr+16(FP), R12
	MOVQ   right+40(FP), R10
	MOVQ   lo+56(FP), BX           // row i
	MOVQ   hi+64(FP), R14
	MOVQ   n+72(FP), R13
	SHLQ   $2, R13                 // row stride of b and c in bytes
	VXORPS Y15, Y15, Y15           // +0, the comparand of the zero mask

row:
	CMPQ         BX, R14
	JGE          done
	MOVL         (R12)(BX*4), AX   // rowptr[i], non-negative: zero-extended
	MOVL         4(R12)(BX*4), CX  // rowptr[i+1]
	SUBQ         AX, CX            // nnz of row i
	MOVQ         cols+24(FP), R8
	LEAQ         (R8)(AX*4), R8    // &cols[rowptr[i]]
	MOVQ         vals+32(FP), R9
	LEAQ         (R9)(AX*4), R9    // &vals[rowptr[i]]
	MOVQ         left+48(FP), AX
	TESTQ        AX, AX
	JZ           noLeft
	VBROADCASTSS (AX)(BX*4), Y14
	JMP          rowStart

noLeft:
	VBROADCASTSS spmmOne<>(SB), Y14

rowStart:
	MOVQ  BX, DI
	IMULQ R13, DI
	ADDQ  c+0(FP), DI              // &c[i,0]
	MOVQ  b+8(FP), SI
	MOVQ  strips+80(FP), DX

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
	JMP    quadLoop

	// The right-diagonal step sits off the loop's fall-through path, so
	// a nil right (every caller today) takes no branch per nonzero: the
	// taken branch cost about a fifth of the strip loop's time.
quadRight:
	VBROADCASTSS (R10)(AX*4), Y10
	VMULPS       Y10, Y4, Y4            // vals[k]·right[col]
	JMP          quadValue

quadLoop:
	MOVL         (R8)(R11*4), AX        // cols[k], non-negative: zero-extended
	VBROADCASTSS (R9)(R11*4), Y4
	TESTQ        R10, R10
	JNZ          quadRight

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
	JMP    pairLoop

pairRight:
	VBROADCASTSS (R10)(AX*4), Y10
	VMULPS       Y10, Y4, Y4            // vals[k]·right[col]
	JMP          pairValue

pairLoop:
	MOVL         (R8)(R11*4), AX
	VBROADCASTSS (R9)(R11*4), Y4
	TESTQ        R10, R10
	JNZ          pairRight

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
	JZ     next
	VXORPS Y0, Y0, Y0
	XORQ   R11, R11
	TESTQ  CX, CX
	JZ     singleStore
	JMP    singleLoop

singleRight:
	VBROADCASTSS (R10)(AX*4), Y10
	VMULPS       Y10, Y4, Y4            // vals[k]·right[col]
	JMP          singleValue

singleLoop:
	MOVL         (R8)(R11*4), AX
	VBROADCASTSS (R9)(R11*4), Y4
	TESTQ        R10, R10
	JNZ          singleRight

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

next:
	INCQ BX
	JMP  row

done:
	VZEROUPPER
	RET
