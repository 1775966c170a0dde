//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 register-tile micro-kernel (contract: matmul.go, DESIGN §5c).
//
// One call computes a 4-row × 2-register tile of C: eight YMM accumulators
// (Y0..Y7, row-major: row r lives in Y(2r), Y(2r+1)), each lane a different
// output column. Every p step loads the two B registers once, broadcasts one
// A element per row, and applies a separate multiply and add — never an FMA,
// whose single rounding would change bits against the scalar code.
//
// Register use, shared by both element widths:
//
//	DI  &C[0][0]     R8  ldc in bytes     BX  3*ldc
//	SI  &A[0][p]     R9  ars in bytes     R12 3*ars     R10 acs in bytes
//	DX  &B[p][0]     R11 ldb in bytes
//	CX  remaining p steps                 AX  mode (0 store, 1 seed, 2 add-to)

// ROW does one row of one p step: acc(lo,hi) += bcast(a) * (Y8,Y9).
#define ROW(BCAST, MUL, ADD, aaddr, lo, hi) \
	BCAST aaddr, Y10; \
	MUL   Y8, Y10, Y11; \
	MUL   Y9, Y10, Y12; \
	ADD   Y11, lo, lo; \
	ADD   Y12, hi, hi

// TILE is the whole kernel body after the arguments are in registers and
// the strides are scaled to bytes.
#define TILE(MOVU, BCAST, MUL, ADD, XOR) \
	LEAQ (R8)(R8*2), BX; \
	LEAQ (R9)(R9*2), R12; \
	CMPQ AX, $1; \
	JNE  zero; \
	MOVU (DI), Y0; \
	MOVU 32(DI), Y1; \
	MOVU (DI)(R8*1), Y2; \
	MOVU 32(DI)(R8*1), Y3; \
	MOVU (DI)(R8*2), Y4; \
	MOVU 32(DI)(R8*2), Y5; \
	MOVU (DI)(BX*1), Y6; \
	MOVU 32(DI)(BX*1), Y7; \
	JMP  start; \
zero: \
	XOR  Y0, Y0, Y0; \
	XOR  Y1, Y1, Y1; \
	XOR  Y2, Y2, Y2; \
	XOR  Y3, Y3, Y3; \
	XOR  Y4, Y4, Y4; \
	XOR  Y5, Y5, Y5; \
	XOR  Y6, Y6, Y6; \
	XOR  Y7, Y7, Y7; \
start: \
	CMPQ CX, $0; \
	JLE  done; \
loop: \
	MOVU (DX), Y8; \
	MOVU 32(DX), Y9; \
	ROW(BCAST, MUL, ADD, (SI), Y0, Y1); \
	ROW(BCAST, MUL, ADD, (SI)(R9*1), Y2, Y3); \
	ROW(BCAST, MUL, ADD, (SI)(R9*2), Y4, Y5); \
	ROW(BCAST, MUL, ADD, (SI)(R12*1), Y6, Y7); \
	ADDQ R10, SI; \
	ADDQ R11, DX; \
	DECQ CX; \
	JNZ  loop; \
done: \
	CMPQ AX, $2; \
	JNE  store; \
	ADD  (DI), Y0, Y0; \
	ADD  32(DI), Y1, Y1; \
	ADD  (DI)(R8*1), Y2, Y2; \
	ADD  32(DI)(R8*1), Y3, Y3; \
	ADD  (DI)(R8*2), Y4, Y4; \
	ADD  32(DI)(R8*2), Y5, Y5; \
	ADD  (DI)(BX*1), Y6, Y6; \
	ADD  32(DI)(BX*1), Y7, Y7; \
store: \
	MOVU Y0, (DI); \
	MOVU Y1, 32(DI); \
	MOVU Y2, (DI)(R8*1); \
	MOVU Y3, 32(DI)(R8*1); \
	MOVU Y4, (DI)(R8*2); \
	MOVU Y5, 32(DI)(R8*2); \
	MOVU Y6, (DI)(BX*1); \
	MOVU Y7, 32(DI)(BX*1); \
	VZEROUPPER; \
	RET

// func kernel4x8F64(c *float64, ldc int, a *float64, ars, acs int, b *float64, ldb, k, mode int)
TEXT ·kernel4x8F64(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ acs+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	MOVQ k+56(FP), CX
	MOVQ mode+64(FP), AX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	TILE(VMOVUPD, VBROADCASTSD, VMULPD, VADDPD, VXORPD)

// func kernel4x16F32(c *float32, ldc int, a *float32, ars, acs int, b *float32, ldb, k, mode int)
TEXT ·kernel4x16F32(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ ars+24(FP), R9
	MOVQ acs+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	MOVQ k+56(FP), CX
	MOVQ mode+64(FP), AX
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	TILE(VMOVUPS, VBROADCASTSS, VMULPS, VADDPS, VXORPS)

// The element-wise heads (contract: vec.go). One step of each works 32 bytes
// at offset o from AX: a separate load, then the add with the Go statement's
// first operand in the middle (first-source) position, so a lane with two
// NaNs keeps the payload the scalar code keeps.
#define ADDTO(o) \
	VMOVUPD o(DI)(AX*1), Y0; \
	VADDPD  o(SI)(AX*1), Y0, Y0; \
	VMOVUPD Y0, o(DI)(AX*1)

#define ADDPAIR(o) \
	VMOVUPD o(SI)(AX*1), Y0; \
	VADDPD  o(DX)(AX*1), Y0, Y0; \
	VMOVUPD Y0, o(DI)(AX*1)

#define ADDPAIRTO(o) \
	VMOVUPD o(SI)(AX*1), Y0; \
	VADDPD  o(DX)(AX*1), Y0, Y0; \
	VMOVUPD o(DI)(AX*1), Y1; \
	VADDPD  Y0, Y1, Y1; \
	VMOVUPD Y1, o(DI)(AX*1)

#define SCALE(o) \
	VMOVUPD o(DI)(AX*1), Y0; \
	VMULPD  Y2, Y0, Y0; \
	VMOVUPD Y0, o(DI)(AX*1)

// VEC rounds len(dst) in CX down to a multiple of 16 elements, returns it
// and runs STEP over that many bytes, four steps a turn.
#define VEC(STEP, ret) \
	ANDQ $~15, CX; \
	MOVQ CX, ret; \
	JZ   done; \
	SHLQ $3, CX; \
	XORQ AX, AX; \
loop: \
	STEP(0); STEP(32); STEP(64); STEP(96); \
	ADDQ $128, AX; \
	CMPQ AX, CX; \
	JLT  loop; \
done: \
	VZEROUPPER; \
	RET

// func vecAddTo(dst, src []float64) int
TEXT ·vecAddTo(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VEC(ADDTO, ret+48(FP))

// func vecAddPair(dst, a, b []float64) int
TEXT ·vecAddPair(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	VEC(ADDPAIR, ret+72(FP))

// func vecAddPairTo(dst, a, b []float64) int
TEXT ·vecAddPairTo(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	VEC(ADDPAIRTO, ret+72(FP))

// func vecScale(dst []float64, s float64) int
TEXT ·vecScale(SB), NOSPLIT, $0-40
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD s+24(FP), Y2
	VEC(SCALE, ret+32(FP))

// The float64↔float32 kernels (contract: vec.go). MASK4 tests four values
// against +0 with NEQ_UQ — true for a NaN, false for −0 — and ors the four
// lane signs into acc at bit sh. Two accumulators, so the shift-or chains
// overlap.
#define MASK4(o, sh, acc) \
	VCMPPD    $4, o(SI), Y15, Y0; \
	VMOVMSKPD Y0, DX; \
	SHLQ      $sh, DX; \
	ORQ       DX, acc

// func vecMaskWord(c *[64]float64) uint64
TEXT ·vecMaskWord(SB), NOSPLIT, $0-16
	MOVQ   c+0(FP), SI
	VXORPD Y15, Y15, Y15
	XORQ   AX, AX
	XORQ   BX, BX
	MASK4(0, 0, AX);    MASK4(32, 4, BX);   MASK4(64, 8, AX);   MASK4(96, 12, BX)
	MASK4(128, 16, AX); MASK4(160, 20, BX); MASK4(192, 24, AX); MASK4(224, 28, BX)
	MASK4(256, 32, AX); MASK4(288, 36, BX); MASK4(320, 40, AX); MASK4(352, 44, BX)
	MASK4(384, 48, AX); MASK4(416, 52, BX); MASK4(448, 56, AX); MASK4(480, 60, BX)
	ORQ    BX, AX
	MOVQ   AX, ret+8(FP)
	VZEROUPPER
	RET

// CONVERT works the leading len&^15 values (len in CX), 16 a turn, AX the
// element index: STEP(k) converts values 4k..4k+3 of the turn.
#define CONVERT(STEP, ret) \
	ANDQ $~15, CX; \
	MOVQ CX, ret; \
	JZ   done; \
	XORQ AX, AX; \
loop: \
	STEP(0); STEP(1); STEP(2); STEP(3); \
	ADDQ $16, AX; \
	CMPQ AX, CX; \
	JLT  loop; \
done: \
	VZEROUPPER; \
	RET

// VCVTPD2PS rounds by MXCSR like the scalar CVTSD2SS Go compiles float32(v)
// to; both quiet a signalling NaN and cut its payload to the top 22 bits.
#define NARROW(k) \
	VCVTPD2PSY (32*k)(SI)(AX*8), X0; \
	VMOVUPS    X0, (16*k)(DI)(AX*4)

// VCVTPS2PD is exact but for quieting a signalling NaN, as CVTSS2SD does.
#define WIDEN(k) \
	VCVTPS2PD (16*k)(SI)(AX*4), Y0; \
	VMOVUPD   Y0, (32*k)(DI)(AX*8)

// func vecNarrowLE(dst []byte, src []float64) int
TEXT ·vecNarrowLE(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	CONVERT(NARROW, ret+48(FP))

// func vecWidenLE(dst []float64, src []byte) int
TEXT ·vecWidenLE(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	CONVERT(WIDEN, ret+48(FP))

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
