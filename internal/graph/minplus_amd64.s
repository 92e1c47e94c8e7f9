//go:build !race

#include "textflag.h"

// func minPlusAVX2(dst, src []float64, a float64)
//
// Per lane: y = a + src[j]; t1 = min(x, y); t2 = min(t1, x); dst[j] =
// t1 | t2, with x = dst[j] and min the x86 MIN (first operand if it
// compares less, else the second). That is the compiler's own lowering
// of the scalar min(x, y), so each lane matches the portable loop bit
// for bit, -0 < +0 and NaN propagation included. Eight lanes per step,
// then one step of four; len(dst) is a multiple of 4.
TEXT ·minPlusAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD a+48(FP), Y0
	CMPQ         CX, $8
	JB           four

eight:
	VADDPD  (SI), Y0, Y1
	VADDPD  32(SI), Y0, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VMINPD  Y1, Y3, Y5
	VMINPD  Y2, Y4, Y6
	VMINPD  Y3, Y5, Y7
	VMINPD  Y4, Y6, Y8
	VORPD   Y5, Y7, Y7
	VORPD   Y6, Y8, Y8
	VMOVUPD Y7, (DI)
	VMOVUPD Y8, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     eight

four:
	CMPQ    CX, $4
	JB      done
	VADDPD  (SI), Y0, Y1
	VMOVUPD (DI), Y3
	VMINPD  Y1, Y3, Y5
	VMINPD  Y3, Y5, Y7
	VORPD   Y5, Y7, Y7
	VMOVUPD Y7, (DI)

done:
	VZEROUPPER
	RET

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
