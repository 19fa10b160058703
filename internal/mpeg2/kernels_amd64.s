#include "textflag.h"

// Reconstruction kernels for amd64; kernels_amd64.go holds the Go wrappers
// that check every slice bound before calling in. Motion compensation and
// the residual kernels use SSE2 only, which every amd64 CPU has. idctAVX2
// runs only where CPUID and XGETBV report AVX2.

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
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The motion-compensation kernels share one frame: DI = dst, DX = dst row
// stride, SI = src, BX = src row stride, AX = block width (8 or 16), CX =
// block height (at least 1).

// func copyRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)
TEXT ·copyRowsSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ stride+24(FP), BX
	MOVQ w+32(FP), AX
	MOVQ h+40(FP), CX
	CMPQ AX, $16
	JEQ  copy16

copy8:
	MOVQ (SI), R8
	MOVQ R8, (DI)
	ADDQ BX, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  copy8
	RET

copy16:
	MOVOU (SI), X0
	MOVOU X0, (DI)
	ADDQ  BX, SI
	ADDQ  DX, DI
	DECQ  CX
	JNZ   copy16
	RET

// func hHalfRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)
// Each sample is the rounding average (PAVGB) of itself and its right
// neighbour.
TEXT ·hHalfRowsSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ stride+24(FP), BX
	MOVQ w+32(FP), AX
	MOVQ h+40(FP), CX
	CMPQ AX, $16
	JEQ  h16

h8:
	MOVQ  (SI), X0
	MOVQ  1(SI), X1
	PAVGB X1, X0
	MOVQ  X0, (DI)
	ADDQ  BX, SI
	ADDQ  DX, DI
	DECQ  CX
	JNZ   h8
	RET

h16:
	MOVOU (SI), X0
	MOVOU 1(SI), X1
	PAVGB X1, X0
	MOVOU X0, (DI)
	ADDQ  BX, SI
	ADDQ  DX, DI
	DECQ  CX
	JNZ   h16
	RET

// func vHalfRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)
// Each sample is the rounding average of itself and the one below; every
// source row is loaded once.
TEXT ·vHalfRowsSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ stride+24(FP), BX
	MOVQ w+32(FP), AX
	MOVQ h+40(FP), CX
	CMPQ AX, $16
	JEQ  v16
	MOVQ (SI), X0

v8:
	ADDQ  BX, SI
	MOVQ  (SI), X1
	PAVGB X1, X0
	MOVQ  X0, (DI)
	MOVO  X1, X0
	ADDQ  DX, DI
	DECQ  CX
	JNZ   v8
	RET

v16:
	MOVOU (SI), X0

v16row:
	ADDQ  BX, SI
	MOVOU (SI), X1
	PAVGB X1, X0
	MOVOU X0, (DI)
	MOVO  X1, X0
	ADDQ  DX, DI
	DECQ  CX
	JNZ   v16row
	RET

// func hvHalfRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)
// Each sample is (a+b+c+d+2)>>2 of a 2×2 source quad, from exact 16-bit
// lane sums: a source row's horizontal pair sums are computed once and,
// with the +2 rounding folded in, carried as the upper pair of the next
// output row. X7 is zero and X6 holds 2 in every 16-bit lane.
TEXT ·hvHalfRowsSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ stride+24(FP), BX
	MOVQ w+32(FP), AX
	MOVQ h+40(FP), CX
	PXOR    X7, X7
	PCMPEQW X6, X6
	PSRLW   $15, X6
	PSLLW   $1, X6
	CMPQ    AX, $16
	JEQ     hv16

	MOVQ      (SI), X0
	MOVQ      1(SI), X2
	PUNPCKLBW X7, X0
	PUNPCKLBW X7, X2
	PADDW     X2, X0
	PADDW     X6, X0

hv8:
	ADDQ      BX, SI
	MOVQ      (SI), X2
	MOVQ      1(SI), X4
	PUNPCKLBW X7, X2
	PUNPCKLBW X7, X4
	PADDW     X4, X2
	PADDW     X2, X0
	PSRLW     $2, X0
	PACKUSWB  X0, X0
	MOVQ      X0, (DI)
	MOVO      X2, X0
	PADDW     X6, X0
	ADDQ      DX, DI
	DECQ      CX
	JNZ       hv8
	RET

hv16:
	MOVOU     (SI), X0
	MOVOU     1(SI), X2
	MOVO      X0, X1
	MOVO      X2, X3
	PUNPCKLBW X7, X0
	PUNPCKHBW X7, X1
	PUNPCKLBW X7, X2
	PUNPCKHBW X7, X3
	PADDW     X2, X0
	PADDW     X3, X1
	PADDW     X6, X0
	PADDW     X6, X1

hv16row:
	ADDQ      BX, SI
	MOVOU     (SI), X2
	MOVOU     1(SI), X4
	MOVO      X2, X3
	MOVO      X4, X5
	PUNPCKLBW X7, X2
	PUNPCKHBW X7, X3
	PUNPCKLBW X7, X4
	PUNPCKHBW X7, X5
	PADDW     X4, X2
	PADDW     X5, X3
	PADDW     X2, X0
	PADDW     X3, X1
	PSRLW     $2, X0
	PSRLW     $2, X1
	PACKUSWB  X1, X0
	MOVOU     X0, (DI)
	MOVO      X2, X0
	MOVO      X3, X1
	PADDW     X6, X0
	PADDW     X6, X1
	ADDQ      DX, DI
	DECQ      CX
	JNZ       hv16row
	RET

// func avgRowsSSE2(dst *uint8, ds int, src *uint8, ss, w, h int)
// Averages the w×h block src (row stride ss) into dst in place; w is 8 or
// 16.
TEXT ·avgRowsSSE2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ds+8(FP), DX
	MOVQ src+16(FP), SI
	MOVQ ss+24(FP), BX
	MOVQ w+32(FP), AX
	MOVQ h+40(FP), CX
	CMPQ AX, $16
	JEQ  avg16

avg8:
	MOVQ  (DI), X0
	MOVQ  (SI), X1
	PAVGB X1, X0
	MOVQ  X0, (DI)
	ADDQ  BX, SI
	ADDQ  DX, DI
	DECQ  CX
	JNZ   avg8
	RET

avg16:
	MOVOU (DI), X0
	MOVOU (SI), X1
	PAVGB X1, X0
	MOVOU X0, (DI)
	ADDQ  BX, SI
	ADDQ  DX, DI
	DECQ  CX
	JNZ   avg16
	RET

// The residual kernels work on one 8×8 block: DI = dst, DX = row stride,
// R8 = 3*stride, X7 = 0. PACKSSLW saturates each int32 to int16 and
// PACKUSWB each int16 to 0..255, so together they are clip255; for a sum,
// PADDSW of the saturated residual and the sample keeps it beyond 0..255
// exactly when the exact sum is, so the result is clip255 of the exact sum.

// PUTROW stores row off/32 of the transform at SI into dst.
#define PUTROW(off, dst) \
	MOVOU    off(SI), X0; \
	MOVOU    off+16(SI), X1; \
	PACKSSLW X1, X0; \
	PACKUSWB X0, X0; \
	MOVQ     X0, dst

// ADDROW adds row off/32 of the residual at SI to the samples at dst.
#define ADDROW(off, dst) \
	MOVOU     off(SI), X0; \
	MOVOU     off+16(SI), X1; \
	PACKSSLW  X1, X0; \
	MOVQ      dst, X1; \
	PUNPCKLBW X7, X1; \
	PADDSW    X1, X0; \
	PACKUSWB  X0, X0; \
	MOVQ      X0, dst

// DCROW adds the saturated residual in every lane of X0 to the samples at
// dst.
#define DCROW(dst) \
	MOVQ      dst, X1; \
	PUNPCKLBW X7, X1; \
	PADDSW    X0, X1; \
	PACKUSWB  X1, X1; \
	MOVQ      X1, dst

// func putBlockSSE2(dst *uint8, stride int, blk *[64]int32)
TEXT ·putBlockSSE2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), DX
	MOVQ blk+16(FP), SI
	LEAQ (DX)(DX*2), R8
	PUTROW(0, (DI))
	PUTROW(32, (DI)(DX*1))
	PUTROW(64, (DI)(DX*2))
	PUTROW(96, (DI)(R8*1))
	LEAQ (DI)(DX*4), DI
	PUTROW(128, (DI))
	PUTROW(160, (DI)(DX*1))
	PUTROW(192, (DI)(DX*2))
	PUTROW(224, (DI)(R8*1))
	RET

// func addBlockSSE2(dst *uint8, stride int, blk *[64]int32)
TEXT ·addBlockSSE2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ stride+8(FP), DX
	MOVQ blk+16(FP), SI
	LEAQ (DX)(DX*2), R8
	PXOR X7, X7
	ADDROW(0, (DI))
	ADDROW(32, (DI)(DX*1))
	ADDROW(64, (DI)(DX*2))
	ADDROW(96, (DI)(R8*1))
	LEAQ (DI)(DX*4), DI
	ADDROW(128, (DI))
	ADDROW(160, (DI)(DX*1))
	ADDROW(192, (DI)(DX*2))
	ADDROW(224, (DI)(R8*1))
	RET

// func addDCSSE2(dst *uint8, stride int, v int32)
TEXT ·addDCSSE2(SB), NOSPLIT, $0-20
	MOVQ     dst+0(FP), DI
	MOVQ     stride+8(FP), DX
	MOVL     v+16(FP), AX
	MOVQ     AX, X0
	PSHUFD   $0, X0, X0
	PACKSSLW X0, X0
	LEAQ     (DX)(DX*2), R8
	PXOR     X7, X7
	DCROW((DI))
	DCROW((DI)(DX*1))
	DCROW((DI)(DX*2))
	DCROW((DI)(R8*1))
	LEAQ     (DI)(DX*4), DI
	DCROW((DI))
	DCROW((DI)(DX*1))
	DCROW((DI)(DX*2))
	DCROW((DI)(R8*1))
	RET

// IDCT constants: the Wang butterfly weights exactly as idct.go folds them,
// and the rounding terms, one int32 each for VPBROADCASTD.
DATA idctK<>+0x00(SB)/4, $565  // W7
DATA idctK<>+0x04(SB)/4, $2276 // W1-W7
DATA idctK<>+0x08(SB)/4, $3406 // W1+W7
DATA idctK<>+0x0c(SB)/4, $2408 // W3
DATA idctK<>+0x10(SB)/4, $799  // W3-W5
DATA idctK<>+0x14(SB)/4, $4017 // W3+W5
DATA idctK<>+0x18(SB)/4, $1108 // W6
DATA idctK<>+0x1c(SB)/4, $3784 // W2+W6
DATA idctK<>+0x20(SB)/4, $1568 // W2-W6
DATA idctK<>+0x24(SB)/4, $181
DATA idctK<>+0x28(SB)/4, $128
DATA idctK<>+0x2c(SB)/4, $4
DATA idctK<>+0x30(SB)/4, $32
DATA idctK<>+0x34(SB)/4, $8192
GLOBL idctK<>(SB), RODATA|NOPTR, $56

#define KW7 idctK<>+0x00(SB)
#define KW1MW7 idctK<>+0x04(SB)
#define KW1PW7 idctK<>+0x08(SB)
#define KW3 idctK<>+0x0c(SB)
#define KW3MW5 idctK<>+0x10(SB)
#define KW3PW5 idctK<>+0x14(SB)
#define KW6 idctK<>+0x18(SB)
#define KW2PW6 idctK<>+0x1c(SB)
#define KW2MW6 idctK<>+0x20(SB)
#define K181 idctK<>+0x24(SB)
#define K128 idctK<>+0x28(SB)
#define K4 idctK<>+0x2c(SB)
#define K32 idctK<>+0x30(SB)
#define K8192 idctK<>+0x34(SB)

// TRANSPOSE8 transposes the 8×8 int32 matrix whose rows are r0..r7 into
// t0..t7 (t_k holds column k), clobbering r0..r7.
#define TRANSPOSE8(r0, r1, r2, r3, r4, r5, r6, r7, t0, t1, t2, t3, t4, t5, t6, t7) \
	VPUNPCKLDQ  r1, r0, t0; \
	VPUNPCKHDQ  r1, r0, t1; \
	VPUNPCKLDQ  r3, r2, t2; \
	VPUNPCKHDQ  r3, r2, t3; \
	VPUNPCKLDQ  r5, r4, t4; \
	VPUNPCKHDQ  r5, r4, t5; \
	VPUNPCKLDQ  r7, r6, t6; \
	VPUNPCKHDQ  r7, r6, t7; \
	VPUNPCKLQDQ t2, t0, r0; \
	VPUNPCKHQDQ t2, t0, r1; \
	VPUNPCKLQDQ t3, t1, r2; \
	VPUNPCKHQDQ t3, t1, r3; \
	VPUNPCKLQDQ t6, t4, r4; \
	VPUNPCKHQDQ t6, t4, r5; \
	VPUNPCKLQDQ t7, t5, r6; \
	VPUNPCKHQDQ t7, t5, r7; \
	VPERM2I128  $0x20, r4, r0, t0; \
	VPERM2I128  $0x20, r5, r1, t1; \
	VPERM2I128  $0x20, r6, r2, t2; \
	VPERM2I128  $0x20, r7, r3, t3; \
	VPERM2I128  $0x31, r4, r0, t4; \
	VPERM2I128  $0x31, r5, r1, t5; \
	VPERM2I128  $0x31, r6, r2, t6; \
	VPERM2I128  $0x31, r7, r3, t7

// SHORTCUT replaces out with sm in the lanes set in mask; sm is already
// zero outside them.
#define SHORTCUT(out, mask, sm) \
	VPANDN out, mask, out; \
	VPOR   sm, out, out

// func idctAVX2(block *[64]int32)
// The generic IDCT of idct.go on eight rows (then eight columns) at once:
// the same int32 operations in the same order, wrapping alike, so the
// output equals IDCT bit for bit. The scalar passes' shortcut for a row or
// column with no AC term is taken per lane too: its lanes are replaced by
// the shortcut value, which the butterfly differs from only on overflow.
TEXT ·idctAVX2(SB), NOSPLIT, $0-8
	MOVQ    block+0(FP), AX
	VMOVDQU 0(AX), Y0
	VMOVDQU 32(AX), Y1
	VMOVDQU 64(AX), Y2
	VMOVDQU 96(AX), Y3
	VMOVDQU 128(AX), Y4
	VMOVDQU 160(AX), Y5
	VMOVDQU 192(AX), Y6
	VMOVDQU 224(AX), Y7
	TRANSPOSE8(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)

	// Row pass (idctRow): Y(8+k) holds coefficient k of every row, so
	// x0 = Y8, x1 = Y12, x2 = Y14, x3 = Y10, x4 = Y9, x5 = Y15, x6 = Y13,
	// x7 = Y11; x8 lives in Y0, constants in Y1 and Y2.
	VPSLLD       $11, Y12, Y12 // x1 = b[4] << 11
	VPOR         Y14, Y12, Y6
	VPOR         Y10, Y6, Y6
	VPOR         Y9, Y6, Y6
	VPOR         Y15, Y6, Y6
	VPOR         Y13, Y6, Y6
	VPOR         Y11, Y6, Y6
	VPXOR        Y7, Y7, Y7
	VPCMPEQD     Y7, Y6, Y6    // Y6: rows with x1..x7 all zero
	VPSLLD       $3, Y8, Y7
	VPAND        Y6, Y7, Y7    // Y7: their shortcut b[0] << 3
	VPSLLD       $11, Y8, Y8
	VPBROADCASTD K128, Y1
	VPADDD       Y1, Y8, Y8    // x0 = (b[0] << 11) + 128

	// First stage.
	VPADDD       Y15, Y9, Y0
	VPBROADCASTD KW7, Y1
	VPMULLD      Y1, Y0, Y0    // x8 = W7 * (x4 + x5)
	VPBROADCASTD KW1MW7, Y1
	VPMULLD      Y1, Y9, Y9
	VPADDD       Y0, Y9, Y9    // x4 = x8 + (W1-W7)*x4
	VPBROADCASTD KW1PW7, Y1
	VPMULLD      Y1, Y15, Y15
	VPSUBD       Y15, Y0, Y15  // x5 = x8 - (W1+W7)*x5
	VPADDD       Y11, Y13, Y0
	VPBROADCASTD KW3, Y1
	VPMULLD      Y1, Y0, Y0    // x8 = W3 * (x6 + x7)
	VPBROADCASTD KW3MW5, Y1
	VPMULLD      Y1, Y13, Y13
	VPSUBD       Y13, Y0, Y13  // x6 = x8 - (W3-W5)*x6
	VPBROADCASTD KW3PW5, Y1
	VPMULLD      Y1, Y11, Y11
	VPSUBD       Y11, Y0, Y11  // x7 = x8 - (W3+W5)*x7

	// Second stage.
	VPADDD       Y12, Y8, Y0   // x8 = x0 + x1
	VPSUBD       Y12, Y8, Y8   // x0 -= x1
	VPADDD       Y14, Y10, Y12
	VPBROADCASTD KW6, Y1
	VPMULLD      Y1, Y12, Y12  // x1 = W6 * (x3 + x2)
	VPBROADCASTD KW2PW6, Y1
	VPMULLD      Y1, Y14, Y14
	VPSUBD       Y14, Y12, Y14 // x2 = x1 - (W2+W6)*x2
	VPBROADCASTD KW2MW6, Y1
	VPMULLD      Y1, Y10, Y10
	VPADDD       Y12, Y10, Y10 // x3 = x1 + (W2-W6)*x3
	VPADDD       Y13, Y9, Y12  // x1 = x4 + x6
	VPSUBD       Y13, Y9, Y9   // x4 -= x6
	VPADDD       Y11, Y15, Y13 // x6 = x5 + x7
	VPSUBD       Y11, Y15, Y15 // x5 -= x7

	// Third stage.
	VPADDD       Y10, Y0, Y11  // x7 = x8 + x3
	VPSUBD       Y10, Y0, Y0   // x8 -= x3
	VPADDD       Y14, Y8, Y10  // x3 = x0 + x2
	VPSUBD       Y14, Y8, Y8   // x0 -= x2
	VPBROADCASTD K181, Y1
	VPBROADCASTD K128, Y2
	VPADDD       Y15, Y9, Y14
	VPMULLD      Y1, Y14, Y14
	VPADDD       Y2, Y14, Y14
	VPSRAD       $8, Y14, Y14  // x2 = (181*(x4+x5) + 128) >> 8
	VPSUBD       Y15, Y9, Y9
	VPMULLD      Y1, Y9, Y9
	VPADDD       Y2, Y9, Y9
	VPSRAD       $8, Y9, Y9    // x4 = (181*(x4-x5) + 128) >> 8

	// Fourth stage: element k of every row into O0..O7 = Y1, Y2, Y3, Y4,
	// Y0, Y8, Y10, Y11.
	VPADDD Y12, Y11, Y1
	VPSRAD $8, Y1, Y1   // (x7 + x1) >> 8
	VPSUBD Y12, Y11, Y11
	VPSRAD $8, Y11, Y11 // (x7 - x1) >> 8
	VPADDD Y14, Y10, Y2
	VPSRAD $8, Y2, Y2   // (x3 + x2) >> 8
	VPSUBD Y14, Y10, Y10
	VPSRAD $8, Y10, Y10 // (x3 - x2) >> 8
	VPADDD Y9, Y8, Y3
	VPSRAD $8, Y3, Y3   // (x0 + x4) >> 8
	VPSUBD Y9, Y8, Y8
	VPSRAD $8, Y8, Y8   // (x0 - x4) >> 8
	VPADDD Y13, Y0, Y4
	VPSRAD $8, Y4, Y4   // (x8 + x6) >> 8
	VPSUBD Y13, Y0, Y0
	VPSRAD $8, Y0, Y0   // (x8 - x6) >> 8
	SHORTCUT(Y1, Y6, Y7)
	SHORTCUT(Y2, Y6, Y7)
	SHORTCUT(Y3, Y6, Y7)
	SHORTCUT(Y4, Y6, Y7)
	SHORTCUT(Y0, Y6, Y7)
	SHORTCUT(Y8, Y6, Y7)
	SHORTCUT(Y10, Y6, Y7)
	SHORTCUT(Y11, Y6, Y7)
	TRANSPOSE8(Y1, Y2, Y3, Y4, Y0, Y8, Y10, Y11, Y5, Y6, Y7, Y9, Y12, Y13, Y14, Y15)

	// Column pass (idctCol): row k of the row-pass output is in Y5, Y6,
	// Y7, Y9, Y12, Y13, Y14, Y15, so x0 = Y5, x1 = Y12, x2 = Y14, x3 = Y7,
	// x4 = Y6, x5 = Y15, x6 = Y13, x7 = Y9; x8 lives in Y4, constants in
	// Y2 and Y3.
	VPSLLD       $8, Y12, Y12 // x1 = b[8*4] << 8
	VPOR         Y14, Y12, Y0
	VPOR         Y7, Y0, Y0
	VPOR         Y6, Y0, Y0
	VPOR         Y15, Y0, Y0
	VPOR         Y13, Y0, Y0
	VPOR         Y9, Y0, Y0
	VPXOR        Y1, Y1, Y1
	VPCMPEQD     Y1, Y0, Y0   // Y0: columns with x1..x7 all zero
	VPBROADCASTD K32, Y1
	VPADDD       Y5, Y1, Y1
	VPSRAD       $6, Y1, Y1
	VPAND        Y0, Y1, Y1   // Y1: their shortcut (b[0] + 32) >> 6
	VPSLLD       $8, Y5, Y5
	VPBROADCASTD K8192, Y2
	VPADDD       Y2, Y5, Y5   // x0 = (b[0] << 8) + 8192
	VPBROADCASTD K4, Y3

	// First stage.
	VPADDD       Y15, Y6, Y4
	VPBROADCASTD KW7, Y2
	VPMULLD      Y2, Y4, Y4
	VPADDD       Y3, Y4, Y4    // x8 = W7*(x4+x5) + 4
	VPBROADCASTD KW1MW7, Y2
	VPMULLD      Y2, Y6, Y6
	VPADDD       Y4, Y6, Y6
	VPSRAD       $3, Y6, Y6    // x4 = (x8 + (W1-W7)*x4) >> 3
	VPBROADCASTD KW1PW7, Y2
	VPMULLD      Y2, Y15, Y15
	VPSUBD       Y15, Y4, Y15
	VPSRAD       $3, Y15, Y15  // x5 = (x8 - (W1+W7)*x5) >> 3
	VPADDD       Y9, Y13, Y4
	VPBROADCASTD KW3, Y2
	VPMULLD      Y2, Y4, Y4
	VPADDD       Y3, Y4, Y4    // x8 = W3*(x6+x7) + 4
	VPBROADCASTD KW3MW5, Y2
	VPMULLD      Y2, Y13, Y13
	VPSUBD       Y13, Y4, Y13
	VPSRAD       $3, Y13, Y13  // x6 = (x8 - (W3-W5)*x6) >> 3
	VPBROADCASTD KW3PW5, Y2
	VPMULLD      Y2, Y9, Y9
	VPSUBD       Y9, Y4, Y9
	VPSRAD       $3, Y9, Y9    // x7 = (x8 - (W3+W5)*x7) >> 3

	// Second stage.
	VPADDD       Y12, Y5, Y4   // x8 = x0 + x1
	VPSUBD       Y12, Y5, Y5   // x0 -= x1
	VPADDD       Y14, Y7, Y12
	VPBROADCASTD KW6, Y2
	VPMULLD      Y2, Y12, Y12
	VPADDD       Y3, Y12, Y12  // x1 = W6*(x3+x2) + 4
	VPBROADCASTD KW2PW6, Y2
	VPMULLD      Y2, Y14, Y14
	VPSUBD       Y14, Y12, Y14
	VPSRAD       $3, Y14, Y14  // x2 = (x1 - (W2+W6)*x2) >> 3
	VPBROADCASTD KW2MW6, Y2
	VPMULLD      Y2, Y7, Y7
	VPADDD       Y12, Y7, Y7
	VPSRAD       $3, Y7, Y7    // x3 = (x1 + (W2-W6)*x3) >> 3
	VPADDD       Y13, Y6, Y12  // x1 = x4 + x6
	VPSUBD       Y13, Y6, Y6   // x4 -= x6
	VPADDD       Y9, Y15, Y13  // x6 = x5 + x7
	VPSUBD       Y9, Y15, Y15  // x5 -= x7

	// Third stage.
	VPADDD       Y7, Y4, Y9    // x7 = x8 + x3
	VPSUBD       Y7, Y4, Y4    // x8 -= x3
	VPADDD       Y14, Y5, Y7   // x3 = x0 + x2
	VPSUBD       Y14, Y5, Y5   // x0 -= x2
	VPBROADCASTD K181, Y2
	VPBROADCASTD K128, Y3
	VPADDD       Y15, Y6, Y14
	VPMULLD      Y2, Y14, Y14
	VPADDD       Y3, Y14, Y14
	VPSRAD       $8, Y14, Y14  // x2 = (181*(x4+x5) + 128) >> 8
	VPSUBD       Y15, Y6, Y6
	VPMULLD      Y2, Y6, Y6
	VPADDD       Y3, Y6, Y6
	VPSRAD       $8, Y6, Y6    // x4 = (181*(x4-x5) + 128) >> 8

	// Fourth stage, straight into the rows of the block.
	VPADDD  Y12, Y9, Y2
	VPSRAD  $14, Y2, Y2  // (x7 + x1) >> 14
	SHORTCUT(Y2, Y0, Y1)
	VMOVDQU Y2, 0(AX)
	VPSUBD  Y12, Y9, Y3
	VPSRAD  $14, Y3, Y3  // (x7 - x1) >> 14
	SHORTCUT(Y3, Y0, Y1)
	VMOVDQU Y3, 224(AX)
	VPADDD  Y14, Y7, Y2
	VPSRAD  $14, Y2, Y2  // (x3 + x2) >> 14
	SHORTCUT(Y2, Y0, Y1)
	VMOVDQU Y2, 32(AX)
	VPSUBD  Y14, Y7, Y3
	VPSRAD  $14, Y3, Y3  // (x3 - x2) >> 14
	SHORTCUT(Y3, Y0, Y1)
	VMOVDQU Y3, 192(AX)
	VPADDD  Y6, Y5, Y2
	VPSRAD  $14, Y2, Y2  // (x0 + x4) >> 14
	SHORTCUT(Y2, Y0, Y1)
	VMOVDQU Y2, 64(AX)
	VPSUBD  Y6, Y5, Y3
	VPSRAD  $14, Y3, Y3  // (x0 - x4) >> 14
	SHORTCUT(Y3, Y0, Y1)
	VMOVDQU Y3, 160(AX)
	VPADDD  Y13, Y4, Y2
	VPSRAD  $14, Y2, Y2  // (x8 + x6) >> 14
	SHORTCUT(Y2, Y0, Y1)
	VMOVDQU Y2, 96(AX)
	VPSUBD  Y13, Y4, Y3
	VPSRAD  $14, Y3, Y3  // (x8 - x6) >> 14
	SHORTCUT(Y3, Y0, Y1)
	VMOVDQU Y3, 128(AX)
	VZEROUPPER
	RET
