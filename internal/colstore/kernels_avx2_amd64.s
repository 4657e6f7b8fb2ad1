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

// func prefetchT0(p unsafe.Pointer, bytes int)
// Issues PREFETCHT0 for every 64th byte of the bytes starting at p.
TEXT ·prefetchT0(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), SI
	MOVQ bytes+8(FP), CX
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

// Coded kernels: the fused scan and the selection stage above, on the
// byte images of low-span columns (codes.go). A filter is a byte range
// [lo, lo+width] on its column's codes; a code c matches iff
// uint8(c-lo) <= width, which per 32 codes is VPSUBB lo, VPMINUB width
// and VPCMPEQB of the two (0xFF where the minimum is the difference
// itself). Filters AND in registers, and VPMOVMSKB turns each block of 64
// rows into one match word in a general register: COUNT is its POPCNT,
// the selection stage stores it, and SUM adds the aggregate column under
// it. The images are padded, so a range's last block is read whole and
// its rows past the range are masked off in the word; the aggregate
// column is not padded, and is read by VPMASKMOVQ, which loads only
// matching lanes (and cannot fault on the others): VPSLLVQ moves each
// row's bit of the word to its lane's sign bit, the mask VPMASKMOVQ
// reads.
//
// Registers: DI filters, R8 k, BX the block's first row, CX rows left,
// R9/R10 the filter cursor and filters left, SI the filter's image, AX
// the block's match word, R12/R13 scratch. Y0/Y1 lo/width splats, Y2-Y5
// scratch, Y6/Y7 the block's match masks.

// codedShift holds, for each row j of a 64-row block, the left shift
// that moves bit j of the block's match word to the sign bit: lane l of
// entry g is 63-(4g+l). VPSLLVQ by entry g of the word, broadcast to
// every lane, is the lane mask VPMASKMOVQ reads for rows 4g..4g+3.
DATA codedShift<>+0(SB)/8, $63
DATA codedShift<>+8(SB)/8, $62
DATA codedShift<>+16(SB)/8, $61
DATA codedShift<>+24(SB)/8, $60
DATA codedShift<>+32(SB)/8, $59
DATA codedShift<>+40(SB)/8, $58
DATA codedShift<>+48(SB)/8, $57
DATA codedShift<>+56(SB)/8, $56
DATA codedShift<>+64(SB)/8, $55
DATA codedShift<>+72(SB)/8, $54
DATA codedShift<>+80(SB)/8, $53
DATA codedShift<>+88(SB)/8, $52
DATA codedShift<>+96(SB)/8, $51
DATA codedShift<>+104(SB)/8, $50
DATA codedShift<>+112(SB)/8, $49
DATA codedShift<>+120(SB)/8, $48
DATA codedShift<>+128(SB)/8, $47
DATA codedShift<>+136(SB)/8, $46
DATA codedShift<>+144(SB)/8, $45
DATA codedShift<>+152(SB)/8, $44
DATA codedShift<>+160(SB)/8, $43
DATA codedShift<>+168(SB)/8, $42
DATA codedShift<>+176(SB)/8, $41
DATA codedShift<>+184(SB)/8, $40
DATA codedShift<>+192(SB)/8, $39
DATA codedShift<>+200(SB)/8, $38
DATA codedShift<>+208(SB)/8, $37
DATA codedShift<>+216(SB)/8, $36
DATA codedShift<>+224(SB)/8, $35
DATA codedShift<>+232(SB)/8, $34
DATA codedShift<>+240(SB)/8, $33
DATA codedShift<>+248(SB)/8, $32
DATA codedShift<>+256(SB)/8, $31
DATA codedShift<>+264(SB)/8, $30
DATA codedShift<>+272(SB)/8, $29
DATA codedShift<>+280(SB)/8, $28
DATA codedShift<>+288(SB)/8, $27
DATA codedShift<>+296(SB)/8, $26
DATA codedShift<>+304(SB)/8, $25
DATA codedShift<>+312(SB)/8, $24
DATA codedShift<>+320(SB)/8, $23
DATA codedShift<>+328(SB)/8, $22
DATA codedShift<>+336(SB)/8, $21
DATA codedShift<>+344(SB)/8, $20
DATA codedShift<>+352(SB)/8, $19
DATA codedShift<>+360(SB)/8, $18
DATA codedShift<>+368(SB)/8, $17
DATA codedShift<>+376(SB)/8, $16
DATA codedShift<>+384(SB)/8, $15
DATA codedShift<>+392(SB)/8, $14
DATA codedShift<>+400(SB)/8, $13
DATA codedShift<>+408(SB)/8, $12
DATA codedShift<>+416(SB)/8, $11
DATA codedShift<>+424(SB)/8, $10
DATA codedShift<>+432(SB)/8, $9
DATA codedShift<>+440(SB)/8, $8
DATA codedShift<>+448(SB)/8, $7
DATA codedShift<>+456(SB)/8, $6
DATA codedShift<>+464(SB)/8, $5
DATA codedShift<>+472(SB)/8, $4
DATA codedShift<>+480(SB)/8, $3
DATA codedShift<>+488(SB)/8, $2
DATA codedShift<>+496(SB)/8, $1
DATA codedShift<>+504(SB)/8, $0
GLOBL codedShift<>(SB), RODATA|NOPTR, $512

// CODED64 sets AX to the match word of the 64 rows at BX: bit j set iff
// row BX+j matches all k filters. One filter per trip of loop: 2 loads,
// 2 VPSUBB, 2 VPMINUB, 2 VPCMPEQB, 2 VPAND. Each use passes its own
// label.
#define CODED64(loop) \
	MOVQ DI, R9; \
	MOVQ R8, R10; \
	VPCMPEQB Y6, Y6, Y6; \
	VPCMPEQB Y7, Y7, Y7; \
loop: \
	MOVQ (R9), SI; \
	VPBROADCASTB 24(R9), Y0; \
	VPBROADCASTB 25(R9), Y1; \
	VMOVDQU (SI)(BX*1), Y2; \
	VMOVDQU 32(SI)(BX*1), Y3; \
	PREFETCHT0 512(SI)(BX*1); \
	VPSUBB Y0, Y2, Y2; \
	VPSUBB Y0, Y3, Y3; \
	VPMINUB Y1, Y2, Y4; \
	VPMINUB Y1, Y3, Y5; \
	VPCMPEQB Y4, Y2, Y2; \
	VPCMPEQB Y5, Y3, Y3; \
	VPAND Y2, Y6, Y6; \
	VPAND Y3, Y7, Y7; \
	ADDQ $32, R9; \
	DECQ R10; \
	JNZ  loop; \
	VPMOVMSKB Y6, AX; \
	VPMOVMSKB Y7, R12; \
	SHLQ $32, R12; \
	ORQ  R12, AX

// TAIL clears the bits of AX for the rows past the range when fewer than
// 64 are left (CX).
#define TAIL(whole) \
	CMPQ CX, $64; \
	JAE  whole; \
	MOVQ $-1, R12; \
	SHLQ CX, R12; \
	NOTQ R12; \
	ANDQ R12, AX; \
whole:

// SUM4 adds the aggregate rows 4g..4g+3 of the block at R13 whose bits
// are set in Y8's broadcast match word into acc.
#define SUM4(g, acc) \
	VPSLLVQ codedShift<>+(32*g)(SB), Y8, Y9; \
	VPMASKMOVQ (32*g)(R13), Y9, Y9; \
	VPADDQ Y9, acc, acc

// SUM64 adds the aggregate rows of the block at BX whose bits are set in
// AX into Y14/Y15 (agg non-nil). With 320 rows or more left it
// prefetches the aggregate column 2 KiB ahead; a half-block with no bit
// set is skipped.
#define SUM64(near, high, done) \
	MOVQ agg+32(FP), R13; \
	TESTQ AX, AX; \
	JZ   done; \
	LEAQ (R13)(BX*8), R13; \
	CMPQ CX, $320; \
	JL   near; \
	PREFETCHT0 2048(R13); \
	PREFETCHT0 2112(R13); \
	PREFETCHT0 2176(R13); \
	PREFETCHT0 2240(R13); \
	PREFETCHT0 2304(R13); \
	PREFETCHT0 2368(R13); \
	PREFETCHT0 2432(R13); \
	PREFETCHT0 2496(R13); \
near: \
	VMOVQ AX, X8; \
	VPBROADCASTQ X8, Y8; \
	TESTL AX, AX; \
	JZ   high; \
	SUM4(0, Y14); \
	SUM4(1, Y15); \
	SUM4(2, Y14); \
	SUM4(3, Y15); \
	SUM4(4, Y14); \
	SUM4(5, Y15); \
	SUM4(6, Y14); \
	SUM4(7, Y15); \
high: \
	SHRQ $32, AX; \
	JZ   done; \
	SUM4(8, Y14); \
	SUM4(9, Y15); \
	SUM4(10, Y14); \
	SUM4(11, Y15); \
	SUM4(12, Y14); \
	SUM4(13, Y15); \
	SUM4(14, Y14); \
	SUM4(15, Y15); \
done:

// func codedRangesAVX2(fs *codedFilter, k int, ranges *Range, nr int, agg *int64) (count uint64, sum int64)
// The coded fused scan over a plan's nr >= 1 ranges, each non-empty and
// inside the store, in one call: it counts the rows that match all k
// filters (k >= 1) and, when agg (row 0 of the SUM column) is non-nil,
// sums agg over them. An exact range counts its length, and reads agg
// whole under all-ones words for a SUM. Before each range it prefetches
// the head of every image for the range two on (prefetchAhead), unless
// that one is exact. fs[j] is a codedFilter: image at 0(fs), lo at 24,
// width at 25, 32 bytes apart; ranges[i] is a Range: Start at 0, End at
// 8, Exact at 16, 24 bytes apart.
//
// Registers: as above, with R14 the range cursor, DX the end of the
// ranges, R11 the count, R13 the prefetched range's start or the block's
// aggregate rows, and Y14/Y15 the sum.
TEXT ·codedRangesAVX2(SB), NOSPLIT, $0-56
	MOVQ fs+0(FP), DI
	MOVQ k+8(FP), R8
	MOVQ ranges+16(FP), R14
	MOVQ nr+24(FP), DX
	IMUL3Q $24, DX, DX
	ADDQ R14, DX
	XORQ R11, R11
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15

cr_range:
	LEAQ 48(R14), R13
	CMPQ R13, DX
	JAE  cr_scan
	CMPB 16(R13), $0
	JNE  cr_scan
	MOVQ (R13), R13
	MOVQ DI, R9
	MOVQ R8, R10
cr_prefetch:
	MOVQ (R9), SI
	PREFETCHT0 (SI)(R13*1)
	PREFETCHT0 63(SI)(R13*1)    // the line after, if the codes straddle
	ADDQ $32, R9
	DECQ R10
	JNZ  cr_prefetch

cr_scan:
	MOVQ (R14), BX
	MOVQ 8(R14), CX
	SUBQ BX, CX                 // rows
	CMPB 16(R14), $0
	JNE  cr_exact
	CMPQ agg+32(FP), $0
	JNE  cr_sumblock
cr_block:                       // COUNT: the match words' popcounts
	CODED64(cr_filter)
	TAIL(cr_whole)
	POPCNTQ AX, R12
	ADDQ R12, R11
	ADDQ $64, BX
	SUBQ $64, CX
	JG   cr_block
	JMP  cr_next
cr_sumblock:                    // SUM: and the aggregate under them
	CODED64(cr_sfilter)
	TAIL(cr_swhole)
	POPCNTQ AX, R12
	ADDQ R12, R11
	SUM64(cr_near, cr_high, cr_done)
	ADDQ $64, BX
	SUBQ $64, CX
	JG   cr_sumblock
	JMP  cr_next

cr_exact:
	ADDQ CX, R11
	CMPQ agg+32(FP), $0
	JEQ  cr_next
cr_exactblock:
	MOVQ $-1, AX
	TAIL(cr_exactwhole)
	SUM64(cr_exactnear, cr_exacthigh, cr_exactdone)
	ADDQ $64, BX
	SUBQ $64, CX
	JG   cr_exactblock

cr_next:
	ADDQ $24, R14
	CMPQ R14, DX
	JB   cr_range

	VPADDQ Y15, Y14, Y14
	VEXTRACTI128 $1, Y14, X0
	VPADDQ X0, X14, X14
	VPSRLDQ $8, X14, X0
	VPADDQ X0, X14, X14
	VMOVQ X14, AX
	VZEROUPPER
	MOVQ R11, count+40(FP)
	MOVQ AX, sum+48(FP)
	RET

// func codedSelectAVX2(fs *codedFilter, k, off int, sel *uint64, n int)
// The coded selection stage: bit j of sel[w] is set iff row off+64w+j
// of the n (n >= 1) matches all k filters (k >= 1); the bits of the last
// word past n are clear. fs is as for codedRangesAVX2.
TEXT ·codedSelectAVX2(SB), NOSPLIT, $0-40
	MOVQ fs+0(FP), DI
	MOVQ k+8(FP), R8
	MOVQ off+16(FP), BX
	MOVQ sel+24(FP), DX
	MOVQ n+32(FP), CX

csl_block:
	CODED64(csl_filter)
	TAIL(csl_whole)
	MOVQ AX, (DX)
	ADDQ $8, DX
	ADDQ $64, BX
	SUBQ $64, CX
	JG   csl_block
	VZEROUPPER
	RET
