#include "textflag.h"

// Four copies of one float64 bit pattern: a 256-bit operand for the
// packed instructions below.
#define VEC4(sym, v) DATA sym<>+0(SB)/8, v; DATA sym<>+8(SB)/8, v; DATA sym<>+16(SB)/8, v; DATA sym<>+24(SB)/8, v; GLOBL sym<>(SB), RODATA|NOPTR, $32

// Constants of math.Log's amd64 assembly (log_amd64.s).
VEC4(logMant, $0x000FFFFFFFFFFFFF)
VEC4(logExpField, $0x00000000000007FF)
VEC4(logHalf, $0x3FE0000000000000)   // 0.5
VEC4(logOne, $0x3FF0000000000000)    // 1.0
VEC4(logTwo, $0x4000000000000000)    // 2.0
VEC4(logHSqrt2, $0x3FE6A09E667F3BCD) // sqrt(2)/2
VEC4(logLn2Hi, $0x3FE62E42FEE00000)
VEC4(logLn2Lo, $0x3DEA39EF35793C76)
VEC4(logL1, $0x3FE5555555555593)
VEC4(logL2, $0x3FD999999997FA04)
VEC4(logL3, $0x3FD2492494229359)
VEC4(logL4, $0x3FCC71C51D8E78AF)
VEC4(logL5, $0x3FC7466496CB03DE)
VEC4(logL6, $0x3FC39A09D078C69F)
VEC4(logL7, $0x3FC2F112DF3E5244)
// 2^52 as bits and as a value: OR-ing a small integer e into the mantissa
// of 2^52 and subtracting 2^52 converts e to float64 exactly.
VEC4(cvtMagic, $0x4330000000000000)
VEC4(logBias, $1022.0)
VEC4(polarMinus2, $-2.0)

// Constants of Exp (exp.go), which are those of math.Exp's amd64 assembly.
VEC4(expLog2e, $1.4426950408889634073599246810018920)
VEC4(expLn2U, $0.69314718055966295651160180568695068359375)
VEC4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
VEC4(expSixteenth, $0.0625)
VEC4(expHalf, $0.5)
VEC4(expOne, $1.0)
VEC4(expTwo, $2.0)
VEC4(expC3, $1.6666666666666666667e-1)
VEC4(expC4, $4.1666666666666666667e-2)
VEC4(expC5, $8.3333333333333333333e-3)
VEC4(expC6, $1.3888888888888888889e-3)
VEC4(expC7, $1.9841269841269841270e-4)
VEC4(expC8, $2.4801587301587301587e-5)
VEC4(expMin, $-708.0)
VEC4(expZero, $0.0)
VEC4(negZero, $0x8000000000000000)
DATA expBias<>+0(SB)/4, $1023
DATA expBias<>+4(SB)/4, $1023
DATA expBias<>+8(SB)/4, $1023
DATA expBias<>+12(SB)/4, $1023
GLOBL expBias<>(SB), RODATA|NOPTR, $16

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

// func polarScaleAVX2(u, s []float64)
//
// Per lane: u·√(−2·ln(s)/s), with ln replayed from log_amd64.s operation
// for operation (the comments name its registers' values). The special
// cases of archLog (zero, negative, Inf, NaN) cannot occur for s in (0, 1).
TEXT ·polarScaleAVX2(SB), NOSPLIT, $0-48
	MOVQ u_base+0(FP), DI
	MOVQ u_len+8(FP), CX
	MOVQ s_base+24(FP), SI
	SHRQ $2, CX
	JZ   polarDone

polarLoop:
	VMOVUPD (SI), Y0
	// f1 := mantissa of s with exponent 0.5; k := float64(exponent − 0x3FE)
	VANDPD  logMant<>(SB), Y0, Y2
	VORPD   logHalf<>(SB), Y2, Y2
	VPSRLQ  $52, Y0, Y1
	VPAND   logExpField<>(SB), Y1, Y1
	VPOR    cvtMagic<>(SB), Y1, Y1
	VSUBPD  cvtMagic<>(SB), Y1, Y1
	VSUBPD  logBias<>(SB), Y1, Y1
	// if f1 < Sqrt2/2 { k -= 1; f1 *= 2 }: CMPSD's not-less-than mask
	VMOVUPD logHSqrt2<>(SB), Y0
	VCMPPD  $5, Y2, Y0, Y0
	VANDPD  logOne<>(SB), Y0, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  logOne<>(SB), Y3, Y3
	VMULPD  Y3, Y2, Y2
	// f := f1 − 1
	VSUBPD  logOne<>(SB), Y2, Y2
	// s := f / (2 + f)
	VADDPD  logTwo<>(SB), Y2, Y0
	VDIVPD  Y0, Y2, Y3
	// s2 := s·s; s4 := s2·s2
	VMULPD  Y3, Y3, Y4
	VMULPD  Y4, Y4, Y5
	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD  logL7<>(SB), Y5, Y6
	VADDPD  logL5<>(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL3<>(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL1<>(SB), Y6, Y6
	VMULPD  Y6, Y4, Y4
	// t2 := s4·(L2 + s4·(L4 + s4·L6))
	VMULPD  logL6<>(SB), Y5, Y6
	VADDPD  logL4<>(SB), Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  logL2<>(SB), Y6, Y6
	VMULPD  Y6, Y5, Y5
	// R := t1 + t2
	VADDPD  Y5, Y4, Y4
	// hfsq := 0.5·f·f
	VMULPD  logHalf<>(SB), Y2, Y0
	VMULPD  Y2, Y0, Y0
	// k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f)
	VADDPD  Y0, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  logLn2Lo<>(SB), Y1, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y0, Y0
	VSUBPD  Y2, Y0, Y0
	VMULPD  logLn2Hi<>(SB), Y1, Y1
	VSUBPD  Y0, Y1, Y1
	// u·√(−2·ln(s)/s)
	VMULPD  polarMinus2<>(SB), Y1, Y1
	VDIVPD  (SI), Y1, Y1
	VSQRTPD Y1, Y1
	VMULPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     polarLoop
	VZEROUPPER

polarDone:
	RET

// EXP4 replaces each lane of Y0, all of which must lie in [−708, 0], with
// its Exp, step for step:
//   - k := round(x·log2(e)) as int32 and as float64;
//   - x −= k·Ln2U; x −= k·Ln2L (both fused); x *= 1/16;
//   - the Taylor series in Horner form with fused steps;
//   - four squarings x = x·(x + 2), the last one fused with + 1;
//   - x·2^k, with 2^k built from the biased exponent k + 1023 in [2, 1023].
// For x in [−708, 0], k lies in [−1021, 0], so Exp's overflow and
// subnormal branches are never taken. It clobbers Y1 and Y3.
#define EXP4 \
	VMULPD       expLog2e<>(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X3; \
	VCVTDQ2PD    X3, Y1; \
	VFNMADD231PD expLn2U<>(SB), Y1, Y0; \
	VFNMADD231PD expLn2L<>(SB), Y1, Y0; \
	VMULPD       expSixteenth<>(SB), Y0, Y0; \
	VMOVUPD      expC8<>(SB), Y1; \
	VFMADD213PD  expC7<>(SB), Y0, Y1; \
	VFMADD213PD  expC6<>(SB), Y0, Y1; \
	VFMADD213PD  expC5<>(SB), Y0, Y1; \
	VFMADD213PD  expC4<>(SB), Y0, Y1; \
	VFMADD213PD  expC3<>(SB), Y0, Y1; \
	VFMADD213PD  expHalf<>(SB), Y0, Y1; \
	VFMADD213PD  expOne<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expTwo<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expTwo<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expTwo<>(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expTwo<>(SB), Y0, Y1; \
	VFMADD213PD  expOne<>(SB), Y1, Y0; \
	VPADDD       expBias<>(SB), X3, X3; \
	VPMOVZXDQ    X3, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y0, Y0

// EXPRANGE sets AX to 15 exactly when every lane of Y0 lies in [−708, 0]
// (ordered, so a NaN lane fails). It clobbers Y1 and Y2.
#define EXPRANGE \
	VCMPPD    $0x1D, expMin<>(SB), Y0, Y1; \
	VCMPPD    $0x12, expZero<>(SB), Y0, Y2; \
	VANDPD    Y2, Y1, Y1; \
	VMOVMSKPD Y1, AX

// func plumeSumsAVX2(v, x, y, slack []float64, plumes []Plume) int
//
// Per group of four points, with the point's x, y, slack and running sum v
// in Y8–Y11 and each plume's fields broadcast from its Plume (X at 0, Y at
// 8, Den at 16, CullQ at 24, LnAmp1 at 32, Amp at 40; 48 bytes a plume):
//
//	q := (dx·dx + dy·dy) / Den, with dx = x − X, dy = y − Y
//	culled := q > CullQ && q > LnAmp1 + slack
//	v += Amp·exp(−q) on the lanes not culled
//
// A plume culled on all four lanes costs no exp. Culled lanes enter EXP4
// as 0 and keep v by a blend, so no lane's sum sees a +0 (which would turn
// a −0 sum into +0).
TEXT ·plumeSumsAVX2(SB), NOSPLIT, $0-128
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ y_base+48(FP), R10
	MOVQ slack_base+72(FP), R11
	MOVQ plumes_base+96(FP), R12
	MOVQ plumes_len+104(FP), R13
	XORQ DX, DX
	SHRQ $2, CX
	JZ   plumeDone
	VXORPD Y12, Y12, Y12

plumeGroup:
	VMOVUPD (SI)(DX*8), Y8
	VMOVUPD (R10)(DX*8), Y9
	VMOVUPD (DI)(DX*8), Y10
	VMOVUPD (R11)(DX*8), Y11
	MOVQ    R12, R8
	MOVQ    R13, R9
	TESTQ   R9, R9
	JZ      plumeStore

plumeTerm:
	// q := (dx·dx + dy·dy) / Den
	VBROADCASTSD 0(R8), Y0
	VSUBPD       Y0, Y8, Y0
	VBROADCASTSD 8(R8), Y1
	VSUBPD       Y1, Y9, Y1
	VMULPD       Y0, Y0, Y0
	VMULPD       Y1, Y1, Y1
	VADDPD       Y1, Y0, Y0
	VBROADCASTSD 16(R8), Y1
	VDIVPD       Y1, Y0, Y0
	// culled := q > CullQ && q > LnAmp1 + slack (ordered: NaN keeps)
	VBROADCASTSD 32(R8), Y1
	VADDPD       Y11, Y1, Y1
	VCMPPD       $0x1E, Y1, Y0, Y1
	VBROADCASTSD 24(R8), Y2
	VCMPPD       $0x1E, Y2, Y0, Y2
	VANDPD       Y2, Y1, Y5
	VMOVMSKPD    Y5, AX
	CMPQ         AX, $15
	JEQ          plumeNext
	// −q on kept lanes, 0 on culled ones; stop at a group exp cannot take.
	VXORPD    negZero<>(SB), Y0, Y0
	VBLENDVPD Y5, Y12, Y0, Y0
	EXPRANGE
	CMPQ      AX, $15
	JNE       plumeStop
	EXP4
	// v += Amp·e on kept lanes
	VBROADCASTSD 40(R8), Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y0, Y10, Y1
	VBLENDVPD    Y5, Y10, Y1, Y10

plumeNext:
	ADDQ $48, R8
	DECQ R9
	JNZ  plumeTerm

plumeStore:
	VMOVUPD Y10, (DI)(DX*8)
	ADDQ    $4, DX
	DECQ    CX
	JNZ     plumeGroup

plumeStop:
	VZEROUPPER

plumeDone:
	MOVQ DX, ret+120(FP)
	RET

// func sweepAVX2(mask []uint8, bit uint8, base, cum, spanLo, spanHi float64, noise, bias, snapP, snapC, lo, hi []float64) int64
//
// Per lane, with base, cum, spanLo and spanHi broadcast in Y12–Y15:
//
//	dev := cum − snapC
//	c := base + noise + bias + snapP
//	vlo, vhi := c − dev, c + dev
//	if vlo < spanLo { vlo = spanLo }; if vhi > spanHi { vhi = spanHi }
//	hit := vlo < lo || vhi > hi
//
// The clamps are a compare and a blend, not MINPD/MAXPD, whose NaN and
// signed-zero rules differ from Go's. The four hit bits become bit in each
// of the group's mask bytes: multiplying by 0x204081 moves hit bit k to
// bit 8k (the partial products do not overlap), and the product with bit
// puts bit in each byte that holds a 1. Hits are counted per lane by
// subtracting the all-ones compare masks from Y6.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-216
	MOVQ         mask_base+0(FP), DI
	MOVQ         mask_len+8(FP), CX
	MOVBLZX      bit+24(FP), R14
	VBROADCASTSD base+32(FP), Y12
	VBROADCASTSD cum+40(FP), Y13
	VBROADCASTSD spanLo+48(FP), Y14
	VBROADCASTSD spanHi+56(FP), Y15
	MOVQ         noise_base+64(FP), R8
	MOVQ         bias_base+88(FP), R9
	MOVQ         snapP_base+112(FP), R10
	MOVQ         snapC_base+136(FP), R11
	MOVQ         lo_base+160(FP), R12
	MOVQ         hi_base+184(FP), R13
	XORQ         DX, DX
	VPXOR        Y6, Y6, Y6
	SHRQ         $2, CX
	JZ           sweepSum

sweepLoop:
	VMOVUPD   (R11)(DX*8), Y0
	VSUBPD    Y0, Y13, Y0
	VADDPD    (R8)(DX*8), Y12, Y1
	VADDPD    (R9)(DX*8), Y1, Y1
	VADDPD    (R10)(DX*8), Y1, Y1
	VSUBPD    Y0, Y1, Y2
	VADDPD    Y0, Y1, Y3
	VCMPPD    $0x11, Y14, Y2, Y4
	VBLENDVPD Y4, Y14, Y2, Y2
	VCMPPD    $0x1E, Y15, Y3, Y4
	VBLENDVPD Y4, Y15, Y3, Y3
	VCMPPD    $0x11, (R12)(DX*8), Y2, Y2
	VCMPPD    $0x1E, (R13)(DX*8), Y3, Y3
	VORPD     Y3, Y2, Y2
	VPSUBQ    Y2, Y6, Y6
	VMOVMSKPD Y2, AX
	IMULL     $0x204081, AX
	ANDL      $0x01010101, AX
	IMULL     R14, AX
	ORL       AX, (DI)(DX*1)
	ADDQ      $4, DX
	DECQ      CX
	JNZ       sweepLoop

sweepSum:
	VEXTRACTI128 $1, Y6, X7
	VPADDQ       X7, X6, X6
	VPSHUFD      $0x4E, X6, X7
	VPADDQ       X7, X6, X6
	VMOVQ        X6, AX
	VZEROUPPER
	MOVQ         AX, ret+208(FP)
	RET
