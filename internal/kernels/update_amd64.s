#include "textflag.h"

// func treeUpdateAVX(c *float32, rows, parent *int32, diag *float32, nrows, n, strips int)
//
// The update stage of the CBM two-stage product over the first
// 8·strips columns of rows[0 : nrows], in order, c row-major with n
// columns. For each row x with parent p = parent[x] (−1 is the virtual
// root):
//
//	p < 0:               skipped: the virtual row is zero
//	diag == nil, p ≥ 0:  c[x] = c[x] + c[p]                    (addAVX)
//	diag != nil, p ≥ 0:  c[x] = (d_x/d_p)·c[p] + c[x]          (axpyAVX)
//
// Each lane keeps the operation and operand order of the blas kernel
// named on its line: the product is rounded on its own before the add
// (VMULPS then VADDPS, no FMA), and the quotient d_x/d_p is one
// VDIVSS, the same float32 division the portable loop rounds; a ±0
// quotient skips the row, as blas.Axpy skips a zero scale, while a NaN
// one does not. So every element is bitwise equal to the portable loop.
// Blocks are taken four, then one at a time, and each is loaded before
// it is stored.
TEXT ·treeUpdateAVX(SB), NOSPLIT, $0-56
	MOVQ  c+0(FP), R11
	MOVQ  rows+8(FP), R8
	MOVQ  parent+16(FP), R9
	MOVQ  diag+24(FP), R10
	MOVQ  nrows+32(FP), CX
	MOVQ  n+40(FP), R13
	SHLQ  $2, R13                  // row stride in bytes
	MOVQ  strips+48(FP), R12
	VXORPS X15, X15, X15           // +0, for the zero-quotient test
	TESTQ R10, R10
	JNZ   axpyRow

addRow:
	TESTQ   CX, CX
	JZ      done
	DECQ    CX
	MOVL    (R8), AX               // x, non-negative: zero-extended
	ADDQ    $4, R8
	MOVLQSX (R9)(AX*4), BX         // p
	TESTQ   BX, BX
	JS      addRow                 // virtual parent row is zero: nothing to add
	MOVQ    AX, DI
	IMULQ   R13, DI
	ADDQ    R11, DI                // &c[x,0]
	MOVQ    BX, SI
	IMULQ   R13, SI
	ADDQ    R11, SI                // &c[p,0]
	MOVQ    R12, DX

addQuad:
	CMPQ    DX, $4
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
	SUBQ    $4, DX
	JMP     addQuad

addOne:
	TESTQ   DX, DX
	JZ      addRow
	VMOVUPS (DI), Y1
	VADDPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JMP     addOne

axpyRow:
	TESTQ    CX, CX
	JZ       done
	DECQ     CX
	MOVL     (R8), AX
	ADDQ     $4, R8
	MOVLQSX  (R9)(AX*4), BX
	TESTQ    BX, BX
	JS       axpyRow               // virtual parent: the row is final
	VMOVSS   (R10)(AX*4), X0
	VDIVSS   (R10)(BX*4), X0, X0   // q = d_x/d_p
	VUCOMISS X15, X0
	JNE      axpyScale
	JPC      axpyRow               // q = ±0: skipped, as blas.Axpy skips a zero scale

axpyScale:
	VSHUFPS     $0, X0, X0, X0
	VINSERTF128 $1, X0, Y0, Y0
	MOVQ        AX, DI
	IMULQ       R13, DI
	ADDQ        R11, DI            // &c[x,0]
	MOVQ        BX, SI
	IMULQ       R13, SI
	ADDQ        R11, SI            // &c[p,0]
	MOVQ        R12, DX

axpyQuad:
	CMPQ    DX, $4
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
	SUBQ    $4, DX
	JMP     axpyQuad

axpyOne:
	TESTQ   DX, DX
	JZ      axpyRow
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JMP     axpyOne

done:
	VZEROUPPER
	RET
