// Element-wise exact AVX primitives of the factorization and solve
// kernels (factor.go): y[i] += x[i]*u and y[i] -= x[i]*u over float64
// slices. Each element takes one rounded multiply (VMULPD/VMULSD) and one
// rounded add or subtract, exactly as the portable Go loops do — no fused
// multiply-add and no cross-lane reduction — so the result is bitwise the
// same whichever runs.

#include "textflag.h"

// func addScaled64AVX(y, x []float64, u float64)
//
// len(x) >= len(y); y[i] += x[i]*u for every i < len(y).
TEXT ·addScaled64AVX(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD u+48(FP), Y0
	MOVQ CX, BX
	SHRQ $4, BX              // blocks of 16
	ANDQ $15, CX             // remainder
	TESTQ BX, BX
	JZ   add4

add16:
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VMULPD 64(SI), Y0, Y3
	VMULPD 96(SI), Y0, Y4
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VADDPD 64(DI), Y3, Y3
	VADDPD 96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ BX
	JNZ  add16

add4:
	CMPQ CX, $4
	JL   add1
	VMULPD (SI), Y0, Y1
	VADDPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  add4

add1:
	TESTQ CX, CX
	JZ   adddone
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  add1

adddone:
	VZEROUPPER
	RET

// func subScaled64AVX(y, x []float64, u float64)
//
// len(x) >= len(y); y[i] -= x[i]*u for every i < len(y).
TEXT ·subScaled64AVX(SB), NOSPLIT, $0-56
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	VBROADCASTSD u+48(FP), Y0
	MOVQ CX, BX
	SHRQ $4, BX
	ANDQ $15, CX
	TESTQ BX, BX
	JZ   sub4

sub16:
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VMULPD 64(SI), Y0, Y3
	VMULPD 96(SI), Y0, Y4
	VMOVUPD (DI), Y5
	VMOVUPD 32(DI), Y6
	VMOVUPD 64(DI), Y7
	VMOVUPD 96(DI), Y8
	VSUBPD Y1, Y5, Y5
	VSUBPD Y2, Y6, Y6
	VSUBPD Y3, Y7, Y7
	VSUBPD Y4, Y8, Y8
	VMOVUPD Y5, (DI)
	VMOVUPD Y6, 32(DI)
	VMOVUPD Y7, 64(DI)
	VMOVUPD Y8, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ BX
	JNZ  sub16

sub4:
	CMPQ CX, $4
	JL   sub1
	VMULPD (SI), Y0, Y1
	VMOVUPD (DI), Y5
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  sub4

sub1:
	TESTQ CX, CX
	JZ   subdone
	VMULSD (SI), X0, X1
	VMOVSD (DI), X5
	VSUBSD X1, X5, X5
	VMOVSD X5, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  sub1

subdone:
	VZEROUPPER
	RET

// func addScaled4x64AVX(x, y []float64, ldy int, u [4]float64)
//
// Four columns at once: y[i+c*ldy] += x[i]*u[c] for i < len(x) and
// c < 4, each x vector loaded once for the four columns. The caller
// guarantees y holds 3*ldy+len(x) elements.
TEXT ·addScaled4x64AVX(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ ldy+48(FP), R11
	SHLQ $3, R11             // ldy in bytes
	VBROADCASTSD u_0+56(FP), Y0
	VBROADCASTSD u_1+64(FP), Y1
	VBROADCASTSD u_2+72(FP), Y2
	VBROADCASTSD u_3+80(FP), Y3
	LEAQ (DI)(R11*1), R8     // column 1
	LEAQ (R8)(R11*1), R9     // column 2
	LEAQ (R9)(R11*1), R10    // column 3
	MOVQ CX, BX
	SHRQ $2, BX              // blocks of 4 rows
	ANDQ $3, CX              // remainder rows
	TESTQ BX, BX
	JZ   add4x1

add4x4:
	VMOVUPD (SI), Y4
	VMULPD Y4, Y0, Y5
	VMULPD Y4, Y1, Y6
	VMULPD Y4, Y2, Y7
	VMULPD Y4, Y3, Y8
	VADDPD (DI), Y5, Y5
	VADDPD (R8), Y6, Y6
	VADDPD (R9), Y7, Y7
	VADDPD (R10), Y8, Y8
	VMOVUPD Y5, (DI)
	VMOVUPD Y6, (R8)
	VMOVUPD Y7, (R9)
	VMOVUPD Y8, (R10)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ BX
	JNZ  add4x4

add4x1:
	TESTQ CX, CX
	JZ   add4done
	VMOVSD (SI), X4
	VMULSD X4, X0, X5
	VMULSD X4, X1, X6
	VMULSD X4, X2, X7
	VMULSD X4, X3, X8
	VADDSD (DI), X5, X5
	VADDSD (R8), X6, X6
	VADDSD (R9), X7, X7
	VADDSD (R10), X8, X8
	VMOVSD X5, (DI)
	VMOVSD X6, (R8)
	VMOVSD X7, (R9)
	VMOVSD X8, (R10)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ CX
	JMP  add4x1

add4done:
	VZEROUPPER
	RET

// func subScaled4x64AVX(x, y []float64, ldy int, u [4]float64)
//
// y[i+c*ldy] -= x[i]*u[c] for i < len(x) and c < 4.
TEXT ·subScaled4x64AVX(SB), NOSPLIT, $0-88
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ ldy+48(FP), R11
	SHLQ $3, R11
	VBROADCASTSD u_0+56(FP), Y0
	VBROADCASTSD u_1+64(FP), Y1
	VBROADCASTSD u_2+72(FP), Y2
	VBROADCASTSD u_3+80(FP), Y3
	LEAQ (DI)(R11*1), R8
	LEAQ (R8)(R11*1), R9
	LEAQ (R9)(R11*1), R10
	MOVQ CX, BX
	SHRQ $2, BX
	ANDQ $3, CX
	TESTQ BX, BX
	JZ   sub4x1

sub4x4:
	VMOVUPD (SI), Y4
	VMULPD Y4, Y0, Y5
	VMULPD Y4, Y1, Y6
	VMULPD Y4, Y2, Y7
	VMULPD Y4, Y3, Y8
	VMOVUPD (DI), Y9
	VMOVUPD (R8), Y10
	VMOVUPD (R9), Y11
	VMOVUPD (R10), Y12
	VSUBPD Y5, Y9, Y9
	VSUBPD Y6, Y10, Y10
	VSUBPD Y7, Y11, Y11
	VSUBPD Y8, Y12, Y12
	VMOVUPD Y9, (DI)
	VMOVUPD Y10, (R8)
	VMOVUPD Y11, (R9)
	VMOVUPD Y12, (R10)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	DECQ BX
	JNZ  sub4x4

sub4x1:
	TESTQ CX, CX
	JZ   sub4done
	VMOVSD (SI), X4
	VMULSD X4, X0, X5
	VMULSD X4, X1, X6
	VMULSD X4, X2, X7
	VMULSD X4, X3, X8
	VMOVSD (DI), X9
	VMOVSD (R8), X10
	VMOVSD (R9), X11
	VMOVSD (R10), X12
	VSUBSD X5, X9, X9
	VSUBSD X6, X10, X10
	VSUBSD X7, X11, X11
	VSUBSD X8, X12, X12
	VMOVSD X9, (DI)
	VMOVSD X10, (R8)
	VMOVSD X11, (R9)
	VMOVSD X12, (R10)
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	DECQ CX
	JMP  sub4x1

sub4done:
	VZEROUPPER
	RET
