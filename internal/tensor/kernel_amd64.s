//go:build amd64 && !purego

#include "textflag.h"

// The register-tile micro-kernels (contract: matmul.go, DESIGN §5c), one
// body at two register widths.
//
// One call computes a 4-row × 8-column float64 tile of C in accumulators
// whose lanes are different output columns: with AVX2 eight YMM registers
// (Y0..Y7, row-major: row r lives in Y(2r), Y(2r+1)), with AVX-512 four ZMM
// registers (row r in Z(r)). Every p step reads its two offsets from the
// tables, loads the row of B once from b + boff[p] (two YMM loads or one ZMM
// load), broadcasts one A element per row from a + arow[r] + acol[p], and
// applies a separate multiply and add — never an FMA, whose single rounding
// would change bits against the scalar code. The two widths run the same
// instructions on each lane, so they produce the same bits.
//
// Register use, shared by every kernel:
//
//	DI  &C[0][0]      R8  ldc in bytes      BX  3*ldc, then acol[p]
//	SI, R9, R12, R13  &A[arow[0..3]]        R10 &acol[k]    R11 &boff[k]
//	DX  &B            CX  p - k, counting up to 0
//	AX  mode (0 store, 1 seed, 2 add-to), then boff[p]

// YACCS and ZACCS apply OP(ins, address, register) to each accumulator and
// the C address it lands at; BX holds 3*ldc. The ACC* macros are the OPs.
#define YACCS(OP, ins) \
	OP(ins, (DI), Y0); \
	OP(ins, 32(DI), Y1); \
	OP(ins, (DI)(R8*1), Y2); \
	OP(ins, 32(DI)(R8*1), Y3); \
	OP(ins, (DI)(R8*2), Y4); \
	OP(ins, 32(DI)(R8*2), Y5); \
	OP(ins, (DI)(BX*1), Y6); \
	OP(ins, 32(DI)(BX*1), Y7)

#define ZACCS(OP, ins) \
	OP(ins, (DI), Z0); \
	OP(ins, (DI)(R8*1), Z1); \
	OP(ins, (DI)(R8*2), Z2); \
	OP(ins, (DI)(BX*1), Z3)

#define ACCLOAD(ins, m, r) ins m, r
#define ACCZERO(ins, m, r) ins r, r, r
#define ACCADD(ins, m, r) ins m, r, r
#define ACCSTORE(ins, m, r) ins r, m

// YSTEP and ZSTEP are one p step, AX = boff[p] and BX = acol[p]: load B's
// row, then per row acc += bcast(a) * B.
#define YROW(aaddr, lo, hi) \
	VBROADCASTSD aaddr, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, lo, lo; \
	VADDPD       Y12, hi, hi

#define YSTEP \
	VMOVUPD (DX)(AX*8), Y8; \
	VMOVUPD 32(DX)(AX*8), Y9; \
	YROW((SI)(BX*8), Y0, Y1); \
	YROW((R9)(BX*8), Y2, Y3); \
	YROW((R12)(BX*8), Y4, Y5); \
	YROW((R13)(BX*8), Y6, Y7)

#define ZROW(aaddr, acc) \
	VBROADCASTSD aaddr, Z10; \
	VMULPD       Z8, Z10, Z11; \
	VADDPD       Z11, acc, acc

#define ZSTEP \
	VMOVUPD (DX)(AX*8), Z8; \
	ZROW((SI)(BX*8), Z0); \
	ZROW((R9)(BX*8), Z1); \
	ZROW((R12)(BX*8), Z2); \
	ZROW((R13)(BX*8), Z3)

// TILE is a whole kernel: ACCS and STEP pick the register width, ZERO clears
// an accumulator.
#define TILE(ACCS, STEP, ZERO) \
	MOVQ c+0(FP), DI; \
	MOVQ ldc+8(FP), R8; \
	MOVQ a+16(FP), SI; \
	MOVQ arow+24(FP), BX; \
	MOVQ acol+32(FP), R10; \
	MOVQ b+40(FP), DX; \
	MOVQ boff+48(FP), R11; \
	MOVQ k+56(FP), CX; \
	MOVQ mode+64(FP), AX; \
	SHLQ $3, R8; \
	MOVQ 8(BX), R9; \
	MOVQ 16(BX), R12; \
	MOVQ 24(BX), R13; \
	MOVQ (BX), BX; \
	LEAQ (SI)(R9*8), R9; \
	LEAQ (SI)(R12*8), R12; \
	LEAQ (SI)(R13*8), R13; \
	LEAQ (SI)(BX*8), SI; \
	LEAQ (R10)(CX*8), R10; \
	LEAQ (R11)(CX*8), R11; \
	NEGQ CX; \
	LEAQ (R8)(R8*2), BX; \
	CMPQ AX, $1; \
	JNE  zero; \
	ACCS(ACCLOAD, VMOVUPD); \
	JMP  start; \
zero: \
	ACCS(ACCZERO, ZERO); \
start: \
	CMPQ CX, $0; \
	JGE  done; \
loop: \
	MOVQ (R11)(CX*8), AX; \
	MOVQ (R10)(CX*8), BX; \
	STEP; \
	INCQ CX; \
	JNZ  loop; \
done: \
	LEAQ (R8)(R8*2), BX; \
	MOVQ mode+64(FP), AX; \
	CMPQ AX, $2; \
	JNE  store; \
	ACCS(ACCADD, VADDPD); \
store: \
	ACCS(ACCSTORE, VMOVUPD); \
	VZEROUPPER; \
	RET

// The AVX2 kernel, the 4×8 tile in YMM registers.

// func kernel4x8F64(c *float64, ldc int, a *float64, arow, acol *int, b *float64, boff *int, k, mode int)
TEXT ·kernel4x8F64(SB), NOSPLIT, $0-72
	TILE(YACCS, YSTEP, VXORPD)

// The AVX-512 kernel, the same tile in ZMM registers. Only AVX512F
// instructions: VPXORQ clears a register (VXORPD on ZMM would need
// AVX512DQ).

// func kernel4x8F64ZMM(c *float64, ldc int, a *float64, arow, acol *int, b *float64, boff *int, k, mode int)
TEXT ·kernel4x8F64ZMM(SB), NOSPLIT, $0-72
	TILE(ZACCS, ZSTEP, VPXORQ)

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

// The SGD heads (contract: vec.go, SGDUpdate), over the leading len(v)&^15
// elements, lr broadcast in Y2 and wd in Y3. Without decay a lane is
// v − g·lr and g is only read; with it, g + v·wd is stored to g and then
// v − g·lr. A separate multiply, add and subtract each — never an FMA — and
// the first sources SGDUpdate states.
#define SGD(o) \
	VMOVUPD o(SI)(AX*1), Y0; \
	VMULPD  Y2, Y0, Y0; \
	VMOVUPD o(DI)(AX*1), Y1; \
	VSUBPD  Y0, Y1, Y1; \
	VMOVUPD Y1, o(DI)(AX*1)

#define SGDDECAY(o) \
	VMOVUPD o(DI)(AX*1), Y1; \
	VMULPD  Y3, Y1, Y0; \
	VMOVUPD o(SI)(AX*1), Y4; \
	VADDPD  Y0, Y4, Y4; \
	VMOVUPD Y4, o(SI)(AX*1); \
	VMULPD  Y2, Y4, Y0; \
	VSUBPD  Y0, Y1, Y1; \
	VMOVUPD Y1, o(DI)(AX*1)

// func vecSGD(v, g []float64, lr float64) int
TEXT ·vecSGD(SB), NOSPLIT, $0-64
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	VBROADCASTSD lr+48(FP), Y2
	VEC(SGD, ret+56(FP))

// func vecSGDDecay(v, g []float64, lr, wd float64) int
TEXT ·vecSGDDecay(SB), NOSPLIT, $0-72
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	VBROADCASTSD lr+48(FP), Y2
	VBROADCASTSD wd+56(FP), Y3
	VEC(SGDDECAY, ret+64(FP))

// The row-add head (contract: vec.go): rows rows of the leading n&^3
// columns, 32 bytes a step, dst advancing dstep and src sstep elements a
// row. dst is the first source, as in AddTo.
//
// func vecAddRows(dst, src []float64, rows, n, dstep, sstep int) int
TEXT ·vecAddRows(SB), NOSPLIT, $0-88
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  rows+48(FP), DX
	MOVQ  n+56(FP), CX
	MOVQ  dstep+64(FP), R8
	MOVQ  sstep+72(FP), R9
	ANDQ  $~3, CX
	MOVQ  CX, ret+80(FP)
	JZ    rowsdone
	TESTQ DX, DX
	JLE   rowsdone
	SHLQ  $3, CX
	SHLQ  $3, R8
	SHLQ  $3, R9

row:
	XORQ AX, AX

col:
	VMOVUPD (DI)(AX*1), Y0
	VADDPD  (SI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     col
	ADDQ    R8, DI
	ADDQ    R9, SI
	DECQ    DX
	JNZ     row

rowsdone:
	VZEROUPPER
	RET

// The ReLU heads (contract: vec.go). VCMPPD with predicate GT_OQ (0x1e)
// against Y15 = +0 is all ones in a lane whose value is greater than +0 —
// false for NaN and for −0 — and VANDPD keeps the value's (or, gated on y,
// the gradient's) bits there and +0 elsewhere.
#define RELU(o) \
	VMOVUPD o(SI)(AX*1), Y0; \
	VCMPPD  $0x1e, Y15, Y0, Y1; \
	VANDPD  Y0, Y1, Y1; \
	VMOVUPD Y1, o(DI)(AX*1)

#define RELUGATE(o) \
	VMOVUPD o(DX)(AX*1), Y0; \
	VCMPPD  $0x1e, Y15, Y0, Y0; \
	VANDPD  o(SI)(AX*1), Y0, Y0; \
	VMOVUPD Y0, o(DI)(AX*1)

// func vecReLU(dst, x []float64) int
TEXT ·vecReLU(SB), NOSPLIT, $0-56
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	VXORPD Y15, Y15, Y15
	VEC(RELU, ret+48(FP))

// func vecReLUGate(dst, g, y []float64) int
TEXT ·vecReLUGate(SB), NOSPLIT, $0-80
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   g_base+24(FP), SI
	MOVQ   y_base+48(FP), DX
	VXORPD Y15, Y15, Y15
	VEC(RELUGATE, ret+72(FP))

// The 2×2/2 max-pool head (contract: vec.go), four windows a step. VUNPCKLPD
// and VUNPCKHPD split each input row's eight values into its windows' first
// and second taps, in lane order 0 2 1 3; the sequential rule is then three
// steps of "a later tap wins when strictly greater" — VCMPPD GT_OQ is false
// for NaN, as the Go `>` — that blend the value and its tap offset
// (0, 1, w, w+1); VPERMPD puts the windows back in order, and the argmax is
// the offset plus top + 2·window. The set-up broadcasts from memory: a
// legacy-SSE MOVQ into an X register cost about 0.8 µs a call here, the
// transition penalty of a non-VEX instruction.
DATA pool2x2k<>+0(SB)/8, $0
DATA pool2x2k<>+8(SB)/8, $2
DATA pool2x2k<>+16(SB)/8, $4
DATA pool2x2k<>+24(SB)/8, $6
DATA pool2x2k<>+32(SB)/8, $1
DATA pool2x2k<>+40(SB)/8, $8
GLOBL pool2x2k<>(SB), RODATA|NOPTR, $48

// func vecMaxPool2x2(od []float64, argmax []int, r0, r1 []float64, top, w int) int
TEXT ·vecMaxPool2x2(SB), NOSPLIT, $0-120
	MOVQ         od_base+0(FP), DI
	MOVQ         od_len+8(FP), CX
	MOVQ         argmax_base+24(FP), R8
	MOVQ         r0_base+48(FP), SI
	MOVQ         r1_base+72(FP), DX
	ANDQ         $~3, CX
	MOVQ         CX, ret+112(FP)
	JZ           done
	SHLQ         $3, CX
	VPBROADCASTQ pool2x2k<>+32(SB), Y10 // tap b's offset, 1
	VPBROADCASTQ w+104(FP), Y11         // tap c's, w
	VPADDQ       Y10, Y11, Y12          // tap d's, w+1
	VPBROADCASTQ top+96(FP), Y13
	VPADDQ       pool2x2k<>(SB), Y13, Y13 // top + 2·window
	VPBROADCASTQ pool2x2k<>+40(SB), Y14 // its step, 8
	XORQ         AX, AX
	XORQ         BX, BX

loop:
	VMOVUPD   (SI)(BX*1), Y0
	VMOVUPD   32(SI)(BX*1), Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VMOVUPD   (DX)(BX*1), Y0
	VMOVUPD   32(DX)(BX*1), Y1
	VUNPCKLPD Y1, Y0, Y4
	VUNPCKHPD Y1, Y0, Y5
	VCMPPD    $0x1e, Y2, Y3, Y7
	VBLENDVPD Y7, Y3, Y2, Y2
	VANDPD    Y10, Y7, Y6
	VCMPPD    $0x1e, Y2, Y4, Y7
	VBLENDVPD Y7, Y4, Y2, Y2
	VBLENDVPD Y7, Y11, Y6, Y6
	VCMPPD    $0x1e, Y2, Y5, Y7
	VBLENDVPD Y7, Y5, Y2, Y2
	VBLENDVPD Y7, Y12, Y6, Y6
	VPERMPD   $0xd8, Y2, Y2
	VPERMPD   $0xd8, Y6, Y6
	VMOVUPD   Y2, (DI)(AX*1)
	VPADDQ    Y13, Y6, Y6
	VMOVDQU   Y6, (R8)(AX*1)
	VPADDQ    Y14, Y13, Y13
	ADDQ      $64, BX
	ADDQ      $32, AX
	CMPQ      AX, CX
	JLT       loop

done:
	VZEROUPPER
	RET

// The 2×2/2 max-pool backward head (contract: vec.go): rows row pairs of
// dd, four windows a step. A step adds g to +0 (Y15 the first source, as the
// Go `0 + g`), and each tap keeps that sum where the argmax minus
// top + 2·window (Y8) equals the tap's offset — 0, 1, w, w+1; VPCMPEQQ — and
// is +0 elsewhere (VANDPD). VUNPCKLPD/VUNPCKHPD interleave a row's two taps
// and VPERM2F128 puts the windows back in order. A row pair moves g and the
// argmax on by ow, dd and top by 2w.
//
// func vecMaxPool2x2Back(g []float64, argmax []int, dd []float64, top, w, ow, rows int) int
TEXT ·vecMaxPool2x2Back(SB), NOSPLIT, $0-112
	MOVQ         g_base+0(FP), SI
	MOVQ         argmax_base+24(FP), R8
	MOVQ         dd_base+48(FP), DI
	MOVQ         w+80(FP), R11
	MOVQ         ow+88(FP), R10
	MOVQ         rows+96(FP), R9
	MOVQ         R10, CX
	ANDQ         $~3, CX
	MOVQ         CX, ret+104(FP)
	JZ           backdone
	TESTQ        R9, R9
	JLE          backdone
	SHLQ         $3, CX
	SHLQ         $3, R10
	LEAQ         (DI)(R11*8), DX // the second row of the pair
	SHLQ         $4, R11
	VXORPD       Y15, Y15, Y15
	VPBROADCASTQ pool2x2k<>+32(SB), Y10 // tap b's offset, 1
	VPBROADCASTQ w+80(FP), Y11          // tap c's, w
	VPADDQ       Y10, Y11, Y12          // tap d's, w+1
	VPADDQ       Y11, Y11, Y9           // a row pair, 2w
	VPBROADCASTQ top+72(FP), Y13
	VPADDQ       pool2x2k<>(SB), Y13, Y13 // top + 2·window of the row pair
	VPBROADCASTQ pool2x2k<>+40(SB), Y14 // its step, 8

backrow:
	VMOVDQU Y13, Y8
	XORQ    AX, AX
	XORQ    BX, BX

backloop:
	VMOVUPD    (SI)(AX*1), Y0
	VADDPD     Y0, Y15, Y0
	VMOVDQU    (R8)(AX*1), Y1
	VPSUBQ     Y8, Y1, Y1
	VPCMPEQQ   Y15, Y1, Y2
	VPCMPEQQ   Y10, Y1, Y3
	VPCMPEQQ   Y11, Y1, Y4
	VPCMPEQQ   Y12, Y1, Y5
	VANDPD     Y0, Y2, Y2
	VANDPD     Y0, Y3, Y3
	VANDPD     Y0, Y4, Y4
	VANDPD     Y0, Y5, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y7, Y6, Y2
	VPERM2F128 $0x31, Y7, Y6, Y3
	VMOVUPD    Y2, (DI)(BX*1)
	VMOVUPD    Y3, 32(DI)(BX*1)
	VUNPCKLPD  Y5, Y4, Y6
	VUNPCKHPD  Y5, Y4, Y7
	VPERM2F128 $0x20, Y7, Y6, Y4
	VPERM2F128 $0x31, Y7, Y6, Y5
	VMOVUPD    Y4, (DX)(BX*1)
	VMOVUPD    Y5, 32(DX)(BX*1)
	VPADDQ     Y14, Y8, Y8
	ADDQ       $64, BX
	ADDQ       $32, AX
	CMPQ       AX, CX
	JLT        backloop
	ADDQ       R10, SI
	ADDQ       R10, R8
	ADDQ       R11, DI
	ADDQ       R11, DX
	VPADDQ     Y9, Y13, Y13
	DECQ       R9
	JNZ        backrow

backdone:
	VZEROUPPER
	RET

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
