#include "textflag.h"

// func treeUpdateAVX(c *float32, rows, parent *int32, diag *float32, nrows, n, strips int)
//
// The update stage of the CBM two-stage product over the first
// 8·strips columns of rows[0 : nrows], in order, c row-major with n
// columns. For each row x with parent p = parent[x] (−1 is the virtual
// root):
//
//	diag == nil, p ≥ 0:  c[x] = c[x] + c[p]                    (addAVX)
//	diag == nil, p < 0:  skipped: the virtual row is zero
//	diag != nil, p ≥ 0:  c[x] = (d_x/d_p)·c[p] + d_x·c[x]      (axpbyAVX)
//	diag != nil, p < 0:  c[x] = d_x·c[x]                       (scalAVX)
//
// Each lane keeps the operation and operand order of the blas kernel
// named on its line: every product is rounded on its own before the
// add (VMULPS then VADDPS, no FMA), and the quotient d_x/d_p is one
// VDIVSS, the same float32 division the portable loop rounds. So every
// element is bitwise equal to the portable loop. Blocks are taken four,
// then one at a time, and each is loaded before it is stored.
TEXT ·treeUpdateAVX(SB), NOSPLIT, $0-56
	MOVQ  c+0(FP), R11
	MOVQ  rows+8(FP), R8
	MOVQ  parent+16(FP), R9
	MOVQ  diag+24(FP), R10
	MOVQ  nrows+32(FP), CX
	MOVQ  n+40(FP), R13
	SHLQ  $2, R13                  // row stride in bytes
	MOVQ  strips+48(FP), R12
	TESTQ R10, R10
	JNZ   dadRow

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

dadRow:
	TESTQ        CX, CX
	JZ           done
	DECQ         CX
	MOVL         (R8), AX
	ADDQ         $4, R8
	MOVLQSX      (R9)(AX*4), BX
	MOVQ         AX, DI
	IMULQ        R13, DI
	ADDQ         R11, DI
	MOVQ         R12, DX
	TESTQ        BX, BX
	JS           scalRow
	VMOVSS       (R10)(AX*4), X0
	VDIVSS       (R10)(BX*4), X0, X0 // d_x/d_p
	VSHUFPS      $0, X0, X0, X0
	VINSERTF128  $1, X0, Y0, Y0
	VBROADCASTSS (R10)(AX*4), Y1     // d_x
	MOVQ         BX, SI
	IMULQ        R13, SI
	ADDQ         R11, SI

axpbyQuad:
	CMPQ    DX, $4
	JLT     axpbyOne
	VMULPS  (SI), Y0, Y2
	VMULPS  32(SI), Y0, Y3
	VMULPS  64(SI), Y0, Y4
	VMULPS  96(SI), Y0, Y5
	VMULPS  (DI), Y1, Y6
	VMULPS  32(DI), Y1, Y7
	VMULPS  64(DI), Y1, Y8
	VMULPS  96(DI), Y1, Y9
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VADDPS  Y8, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	VMOVUPS Y4, 64(DI)
	VMOVUPS Y5, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $4, DX
	JMP     axpbyQuad

axpbyOne:
	TESTQ   DX, DX
	JZ      dadRow
	VMULPS  (SI), Y0, Y2
	VMULPS  (DI), Y1, Y6
	VADDPS  Y6, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JMP     axpbyOne

scalRow:
	VBROADCASTSS (R10)(AX*4), Y0     // d_x

scalQuad:
	CMPQ    DX, $4
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
	SUBQ    $4, DX
	JMP     scalQuad

scalOne:
	TESTQ   DX, DX
	JZ      dadRow
	VMULPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	DECQ    DX
	JMP     scalOne

done:
	VZEROUPPER
	RET
