// Packed SSE2 natural logarithm, two lanes per step. Each lane repeats the
// instruction sequence of the Go standard library's math.archLog
// ($GOROOT/src/math/log_amd64.s) operation for operation: the same bit-level
// frexp, the same not-less-than comparison against sqrt(2)/2, the same
// polynomial evaluation order and the same final reconstruction. SSE2 has
// no fused multiply-add, and packed arithmetic rounds every lane exactly as
// the scalar instruction does, so each lane's result has exactly the bits
// math.Log returns. Only SSE2 is used, so the kernel runs at GOAMD64=v1.
//
// The kernel has no special-case branches: it is exact for positive finite
// inputs (the best-effort sampler only feeds it 1-u in [2^-53, 1]); zero,
// negative, infinite and NaN inputs give unspecified results. It takes one
// cursor block of 2*beBlock values, 2 per step; the loop count below is
// beBlock.

#include "textflag.h"

// Two copies of each float64 constant, one per lane.
#define PAIR(name, bits) \
	DATA name<>+0(SB)/8, $bits \
	DATA name<>+8(SB)/8, $bits \
	GLOBL name<>(SB), RODATA|NOPTR, $16

PAIR(logMant, 0x000FFFFFFFFFFFFF)
PAIR(logHalf, 0x3FE0000000000000)   // 0.5
PAIR(logOne, 0x3FF0000000000000)    // 1
PAIR(logTwo, 0x4000000000000000)    // 2
PAIR(logHSqrt2, 0x3FE6A09E667F3BCD) // sqrt(2)/2
PAIR(logLn2Hi, 0x3FE62E42FEE00000)
PAIR(logLn2Lo, 0x3DEA39EF35793C76)
PAIR(logL1, 0x3FE5555555555593)
PAIR(logL2, 0x3FD999999997FA04)
PAIR(logL3, 0x3FD2492494229359)
PAIR(logL4, 0x3FCC71C51D8E78AF)
PAIR(logL5, 0x3FC7466496CB03DE)
PAIR(logL6, 0x3FC39A09D078C69F)
PAIR(logL7, 0x3FC2F112DF3E5244)

// Four int32 copies of the exponent bias frexp removes.
DATA logBias<>+0(SB)/8, $0x000003FE000003FE
DATA logBias<>+8(SB)/8, $0x000003FE000003FE
GLOBL logBias<>(SB), RODATA|NOPTR, $16

// func logs(x *[2 * beBlock]float64)
TEXT ·logs(SB), NOSPLIT, $0-8
	MOVQ   x+0(FP), SI
	MOVQ   $64, CX // beBlock pairs
	MOVAPD logMant<>(SB), X8
	MOVAPD logHalf<>(SB), X9
	MOVAPD logHSqrt2<>(SB), X10
	MOVAPD logOne<>(SB), X11
	MOVAPD logTwo<>(SB), X12
	MOVAPD logBias<>(SB), X13
	MOVAPD logLn2Hi<>(SB), X14
	MOVAPD logLn2Lo<>(SB), X15

pair:
	MOVUPD (SI), X0

	// f1, ki := math.Frexp(x); k := float64(ki)
	MOVAPD   X8, X2
	ANDPD    X0, X2
	ORPD     X9, X2
	MOVAPD   X0, X7
	PSRLQ    $52, X7
	PSHUFL   $0x08, X7, X7
	PSUBL    X13, X7
	CVTPL2PD X7, X1

	// if !(sqrt(2)/2 < f1) { k -= 1; f1 *= 2 }
	MOVAPD X10, X0
	CMPPD  X2, X0, 5
	MOVAPD X11, X3
	ANDPD  X0, X3
	SUBPD  X3, X1
	ADDPD  X11, X3
	MULPD  X3, X2

	// f := f1 - 1
	SUBPD X11, X2

	// s := f / (2 + f)
	MOVAPD X12, X0
	ADDPD  X2, X0
	MOVAPD X2, X3
	DIVPD  X0, X3

	// s2 := s * s; s4 := s2 * s2
	MOVAPD X3, X4
	MULPD  X4, X4
	MOVAPD X4, X5
	MULPD  X5, X5

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	MOVAPD logL7<>(SB), X6
	MULPD  X5, X6
	ADDPD  logL5<>(SB), X6
	MULPD  X5, X6
	ADDPD  logL3<>(SB), X6
	MULPD  X5, X6
	ADDPD  logL1<>(SB), X6
	MULPD  X6, X4

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	MOVAPD logL6<>(SB), X6
	MULPD  X5, X6
	ADDPD  logL4<>(SB), X6
	MULPD  X5, X6
	ADDPD  logL2<>(SB), X6
	MULPD  X6, X5

	// R := t1 + t2
	ADDPD X5, X4

	// hfsq := 0.5 * f * f
	MOVAPD X9, X0
	MULPD  X2, X0
	MULPD  X2, X0

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	ADDPD  X0, X4
	MULPD  X4, X3
	MOVAPD X15, X4
	MULPD  X1, X4
	ADDPD  X4, X3
	SUBPD  X3, X0
	SUBPD  X2, X0
	MULPD  X14, X1
	SUBPD  X0, X1

	MOVUPD X1, (SI)
	ADDQ   $16, SI
	DECQ   CX
	JNZ    pair
	RET
