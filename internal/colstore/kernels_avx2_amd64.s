//go:build !purego

#include "textflag.h"

// AVX2 scan kernels: 4x int64 lanes per instruction, exact semantics of
// the portable branch-free kernels in kernels.go. rangeCountSumNAVX2 is
// the flat scan, rangeSelectNAVX2 the grouped scan's selection stage.
//
// The range predicate uint64(v-lo) <= width is evaluated with the signed
// compare VPCMPGTQ via the bias trick: adding 2^63 (mod 2^64) to both
// sides of an unsigned compare turns it into the signed compare of the
// biased values. Because 2^63 is only the sign bit, v - lo + 2^63 folds
// into a single VPSUBQ by the precomputed scalar lo' = lo - 2^63, and
// width' = width + 2^63 is precomputed too. VPCMPGTQ(u, width') then
// yields all-ones exactly on the NON-matching lanes, which COUNT
// (accumulate -1 per non-match) and SUM (VPANDN clears non-matching
// lanes) consume without a NOT.
//
// Every 16-row loop software-prefetches ~1KiB ahead of each load stream:
// scans are memory-bound past ~1 GB/s/core, and the explicit PREFETCHT0
// keeps the line fills ahead of the consume rate where the hardware
// streamer has to restart.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func prefetchT0(p *int64, rows int)
// Issues PREFETCHT0 for every cache line of rows*8 bytes starting at p.
TEXT ·prefetchT0(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), SI
	MOVQ rows+8(FP), CX
	SHLQ $3, CX          // bytes
pf_loop:
	CMPQ CX, $0
	JLE  pf_done
	PREFETCHT0 (SI)
	ADDQ $64, SI
	SUBQ $64, CX
	JMP  pf_loop
pf_done:
	RET

// func rangeCountSumNAVX2(args *filterArg, k int, agg *int64, n int) (count uint64, sum int64)
// The fused scan kernel: counts the rows among the n that match all k
// filters (k >= 1) and, when agg is non-nil, sums agg over them. args[j]
// is {col at the range's first row, lo', width'}; n must be a multiple of 4.
//
// Per group of rows the first filter writes one non-match mask per YMM
// and every later filter ORs into it; the group then folds the masks:
// COUNT adds them (-1 per non-match lane, so count = n + lanes), SUM adds
// agg with those lanes cleared.
//
// Registers: DI args, R8 k, DX agg, CX rows left, BX byte offset of the
// group, R9/R10 the filter cursor and filters left, SI the filter's
// column. Y0/Y1 lo'/width', Y2-Y5 a later filter's masks, Y6-Y9 the
// group's masks, Y10-Y13 the count and Y14/Y15 the sum accumulators.

// FILTER loads the filter at R9: its column into SI, lo' and width' into
// Y0 and Y1.
#define FILTER \
	MOVQ (R9), SI; \
	VPBROADCASTQ 8(R9), Y0; \
	VPBROADCASTQ 16(R9), Y1

// COMPARE16 sets r0-r3 to the non-match masks of the 16 rows at SI+BX
// (all-ones where u = v - lo' > width') and prefetches 1 KiB ahead.
#define COMPARE16(r0, r1, r2, r3) \
	VMOVDQU (SI)(BX*1), r0; \
	VMOVDQU 32(SI)(BX*1), r1; \
	VMOVDQU 64(SI)(BX*1), r2; \
	VMOVDQU 96(SI)(BX*1), r3; \
	PREFETCHT0 1024(SI)(BX*1); \
	PREFETCHT0 1088(SI)(BX*1); \
	VPSUBQ Y0, r0, r0; \
	VPSUBQ Y0, r1, r1; \
	VPSUBQ Y0, r2, r2; \
	VPSUBQ Y0, r3, r3; \
	VPCMPGTQ Y1, r0, r0; \
	VPCMPGTQ Y1, r1, r1; \
	VPCMPGTQ Y1, r2, r2; \
	VPCMPGTQ Y1, r3, r3

// COMPARE4 is COMPARE16 for the 4 rows at SI+BX, without prefetch.
#define COMPARE4(r0) \
	VMOVDQU (SI)(BX*1), r0; \
	VPSUBQ Y0, r0, r0; \
	VPCMPGTQ Y1, r0, r0

TEXT ·rangeCountSumNAVX2(SB), NOSPLIT, $0-48
	MOVQ args+0(FP), DI
	MOVQ k+8(FP), R8
	MOVQ agg+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ CX, R11                // saved n
	XORQ BX, BX
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	SUBQ $16, CX
	JL   rcn_tail16

rcn_loop16:
	MOVQ DI, R9
	MOVQ R8, R10
	FILTER
	COMPARE16(Y6, Y7, Y8, Y9)
	JMP  rcn_next16
rcn_filter16:
	FILTER
	COMPARE16(Y2, Y3, Y4, Y5)
	VPOR Y2, Y6, Y6
	VPOR Y3, Y7, Y7
	VPOR Y4, Y8, Y8
	VPOR Y5, Y9, Y9
rcn_next16:
	ADDQ $24, R9
	DECQ R10
	JNZ  rcn_filter16

	TESTQ DX, DX
	JZ   rcn_count16
	LEAQ (DX)(BX*1), AX
	VPANDN (AX), Y6, Y2         // agg where every filter matched, 0 elsewhere
	VPANDN 32(AX), Y7, Y3
	VPANDN 64(AX), Y8, Y4
	VPANDN 96(AX), Y9, Y5
	PREFETCHT0 1024(AX)
	PREFETCHT0 1088(AX)
	VPADDQ Y3, Y2, Y2
	VPADDQ Y5, Y4, Y4
	VPADDQ Y2, Y14, Y14
	VPADDQ Y4, Y15, Y15
rcn_count16:
	VPADDQ Y6, Y10, Y10
	VPADDQ Y7, Y11, Y11
	VPADDQ Y8, Y12, Y12
	VPADDQ Y9, Y13, Y13
	ADDQ $128, BX
	SUBQ $16, CX
	JGE  rcn_loop16

rcn_tail16:
	ADDQ $16, CX                // 0-15 rows left, a multiple of 4
	JZ   rcn_done

rcn_loop4:
	MOVQ DI, R9
	MOVQ R8, R10
	FILTER
	COMPARE4(Y6)
	JMP  rcn_next4
rcn_filter4:
	FILTER
	COMPARE4(Y2)
	VPOR Y2, Y6, Y6
rcn_next4:
	ADDQ $24, R9
	DECQ R10
	JNZ  rcn_filter4

	TESTQ DX, DX
	JZ   rcn_count4
	VPANDN (DX)(BX*1), Y6, Y2
	VPADDQ Y2, Y14, Y14
rcn_count4:
	VPADDQ Y6, Y10, Y10
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ  rcn_loop4

rcn_done:
	VPADDQ Y11, Y10, Y10
	VPADDQ Y13, Y12, Y12
	VPADDQ Y12, Y10, Y10
	VEXTRACTI128 $1, Y10, X3
	VPADDQ X3, X10, X10
	VPSRLDQ $8, X10, X3
	VPADDQ X3, X10, X10
	VPADDQ Y15, Y14, Y14
	VEXTRACTI128 $1, Y14, X4
	VPADDQ X4, X14, X14
	VPSRLDQ $8, X14, X4
	VPADDQ X4, X14, X14
	VZEROUPPER
	MOVQ X10, AX
	ADDQ R11, AX                // n - non-matches
	MOVQ AX, count+32(FP)
	MOVQ X14, AX
	MOVQ AX, sum+40(FP)
	RET

// func rangeSelectNAVX2(args *filterArg, k int, sel *uint64, n int)
// The selection kernel: the fused scan above with "write a selection word"
// in place of "fold": bit j of sel[w] is set iff row 64w+j of the n
// matches all k filters (k >= 1), and the bits of the last word past n
// are clear. args is as for rangeCountSumNAVX2; n must be a multiple of 4.
//
// The open word is built in R11 from the top down, out of non-match bits:
// each group shifts it right and puts its bits in the top 16 (or 4), so
// after 64 rows it holds them in row order and is stored complemented;
// a word the rows end inside is shifted down to bit 0 before its store.
// The shift counts are immediates, and only that last store shifts by CL.
//
// Registers: as rangeCountSumNAVX2, with DX the next word to store, R11
// the open word and AX/R12 scratch for the mask bits.
TEXT ·rangeSelectNAVX2(SB), NOSPLIT, $0-32
	MOVQ args+0(FP), DI
	MOVQ k+8(FP), R8
	MOVQ sel+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX
	XORQ R11, R11
	SUBQ $16, CX
	JL   rsn_tail16

rsn_loop16:
	MOVQ DI, R9
	MOVQ R8, R10
	FILTER
	COMPARE16(Y6, Y7, Y8, Y9)
	JMP  rsn_next16
rsn_filter16:
	FILTER
	COMPARE16(Y2, Y3, Y4, Y5)
	VPOR Y2, Y6, Y6
	VPOR Y3, Y7, Y7
	VPOR Y4, Y8, Y8
	VPOR Y5, Y9, Y9
rsn_next16:
	ADDQ $24, R9
	DECQ R10
	JNZ  rsn_filter16

	VMOVMSKPD Y6, AX            // non-match bits of rows 0-3
	VMOVMSKPD Y7, R12
	SHLQ $4, R12
	ORQ  R12, AX
	VMOVMSKPD Y8, R12
	SHLQ $8, R12
	ORQ  R12, AX
	VMOVMSKPD Y9, R12
	SHLQ $12, R12
	ORQ  R12, AX
	SHRQ $16, R11
	SHLQ $48, AX
	ORQ  AX, R11
	ADDQ $128, BX
	TESTQ $511, BX              // 64 rows since the last store?
	JNZ  rsn_more16
	NOTQ R11
	MOVQ R11, (DX)
	ADDQ $8, DX
rsn_more16:
	SUBQ $16, CX
	JGE  rsn_loop16

rsn_tail16:
	ADDQ $16, CX                // 0-12 rows left: they cannot close a word
	JZ   rsn_done

rsn_loop4:
	MOVQ DI, R9
	MOVQ R8, R10
	FILTER
	COMPARE4(Y6)
	JMP  rsn_next4
rsn_filter4:
	FILTER
	COMPARE4(Y2)
	VPOR Y2, Y6, Y6
rsn_next4:
	ADDQ $24, R9
	DECQ R10
	JNZ  rsn_filter4

	VMOVMSKPD Y6, AX
	SHRQ $4, R11
	SHLQ $60, AX
	ORQ  AX, R11
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ  rsn_loop4

rsn_done:
	MOVQ BX, CX
	ANDQ $511, CX               // bytes of the open word's rows
	JZ   rsn_ret
	SHRQ $3, CX
	NEGQ CX
	ADDQ $64, CX                // its unused bits, at the bottom
	NOTQ R11
	SHRQ CX, R11
	MOVQ R11, (DX)
rsn_ret:
	VZEROUPPER
	RET
