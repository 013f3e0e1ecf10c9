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

// Constants of math.Exp's amd64 assembly (exp_amd64.s).
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

// func expAVX2(x []float64) int
//
// Per lane: the avxfma path of exp_amd64.s, operation for operation. For
// x in [−708, 0] the exponent k = round(x·log2(e)) lies in [−1021, 0], so
// archExp's overflow, underflow and subnormal branches are never taken.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	XORQ DX, DX
	SHRQ $2, CX
	JZ   expDone

expLoop:
	VMOVUPD (DI), Y0
	// Stop at a block with a lane outside [−708, 0] or NaN.
	VCMPPD    $0x1D, expMin<>(SB), Y0, Y1 // x >= −708, ordered
	VCMPPD    $0x12, expZero<>(SB), Y0, Y2 // x <= 0, ordered
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       expStop
	// k := round(x·log2(e)) as int32 and as float64
	VMULPD     expLog2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X3
	VCVTDQ2PD  X3, Y1
	// x −= k·Ln2U; x −= k·Ln2L (fused); x *= 1/16
	VFNMADD231PD expLn2U<>(SB), Y1, Y0
	VFNMADD231PD expLn2L<>(SB), Y1, Y0
	VMULPD       expSixteenth<>(SB), Y0, Y0
	// Taylor series, Horner form with fused steps
	VMOVUPD     expC8<>(SB), Y1
	VFMADD213PD expC7<>(SB), Y0, Y1
	VFMADD213PD expC6<>(SB), Y0, Y1
	VFMADD213PD expC5<>(SB), Y0, Y1
	VFMADD213PD expC4<>(SB), Y0, Y1
	VFMADD213PD expC3<>(SB), Y0, Y1
	VFMADD213PD expHalf<>(SB), Y0, Y1
	VFMADD213PD expOne<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	// four squarings: x = x·(x + 2), the last one fused with + 1
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VMULPD      Y1, Y0, Y0
	VADDPD      expTwo<>(SB), Y0, Y1
	VFMADD213PD expOne<>(SB), Y1, Y0
	// x·2^k, with 2^k built from the biased exponent k + 1023 in [2, 1023]
	VPADDD    expBias<>(SB), X3, X3
	VPMOVZXDQ X3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $4, DX
	DECQ      CX
	JNZ       expLoop

expStop:
	VZEROUPPER

expDone:
	MOVQ DX, ret+24(FP)
	RET
