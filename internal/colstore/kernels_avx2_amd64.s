//go:build !purego

#include "textflag.h"

// The AVX2 plan kernel, exact semantics of the portable kernel in
// kernels.go: laneRangesAVX2 below. Helpers first.

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

// The plan kernel: for each 64-row block of each range, every filter
// produces a match word from its own lane (codes.go), and the words are
// ANDed in a general register. A filter's lane is a byte range
// [lo, lo+width] of lane values; a value v matches iff v-lo <= width in
// the lane's unsigned arithmetic:
//
//   - 1 byte:  VPSUBB lo, VPMINUB width, VPCMPEQB of the two (all-ones
//     where the minimum is the difference itself), VPMOVMSKB: 32 rows a
//     vector;
//   - 2 bytes: the same with VPSUBW/VPMINUW/VPCMPEQW, the 16 word masks
//     packed to bytes (VPACKSSWB) before VPMOVMSKB;
//   - 4 bytes: VPSUBD/VPMINUD/VPCMPEQD, then VMOVMSKPS: 8 rows a vector;
//   - 8 bytes, the int64 column itself: the signed VPCMPGTQ by the bias
//     trick. Adding 2^63 (mod 2^64) to both sides of an unsigned compare
//     turns it into the signed compare of the biased values, and as 2^63
//     is only the sign bit, v - lo + 2^63 is one VPSUBQ by lo' = lo^2^63;
//     VPCMPGTQ against width' = width^2^63 is all-ones exactly on the
//     NON-matching rows, whose VMOVMSKPD bits are complemented once per
//     block. 4 rows a vector.
//
// A block's word starts as its rows (the low bits of a range's last,
// partial block), and a filter loads only the vectors that hold them,
// the 2- and 4-byte lanes' in pairs: a 20-row range reads 2 vectors of
// a 1- or 2-byte lane, 4 of a 4-byte one and 5 of the int64 column. The
// images are padded, so their last vector is read whole; the int64
// column is not, and its last 1-3 rows are read by VPMASKMOVQ, which
// loads only the lanes its mask selects (and cannot fault on the
// others). COUNT adds the word's POPCNT, SUM adds the aggregate under
// it, and the selection stage stores it. No branch depends on the
// values: a word is never tested for being dead, so short ranges cost
// no mispredictions.
//
// The aggregate column is not padded either, and is read by VPMASKMOVQ
// under the word: VPSLLVQ moves each row's bit of the word to its lane's
// sign bit, the mask VPMASKMOVQ reads.

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

// laneIota is lane l = l: compared against the broadcast count of rows
// left, it is the VPMASKMOVQ mask of the int64 column's last vector.
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
GLOBL laneIota<>(SB), RODATA|NOPTR, $32

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
	MOVQ agg+40(FP), R13; \
	TESTQ AX, AX; \
	JZ   done; \
	LEAQ (R13)(BX*8), R13; \
	CMPQ R10, $320; \
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

// LANE1 sets R13 to the match bits of the 32 1-byte values at off(SI).
#define LANE1(off) \
	VMOVDQU off(SI), Y2; \
	VPSUBB Y0, Y2, Y2; \
	VPMINUB Y1, Y2, Y3; \
	VPCMPEQB Y3, Y2, Y2; \
	VPMOVMSKB Y2, R13

// BLOCK1 ANDs the match word of the 64 1-byte values at off(SI) into the
// chunk's word at w(CX).
#define BLOCK1(off, w) \
	VMOVDQU off(SI), Y2; \
	VMOVDQU (off+32)(SI), Y3; \
	VPSUBB Y0, Y2, Y2; \
	VPSUBB Y0, Y3, Y3; \
	VPMINUB Y1, Y2, Y4; \
	VPMINUB Y1, Y3, Y5; \
	VPCMPEQB Y4, Y2, Y2; \
	VPCMPEQB Y5, Y3, Y3; \
	VPMOVMSKB Y2, R12; \
	VPMOVMSKB Y3, R13; \
	SHLQ $32, R13; \
	ORQ  R13, R12; \
	ANDQ R12, w(CX)

// LANE2 sets R13 to the match bits of the 16 2-byte values at off(SI).
#define LANE2(off) \
	VMOVDQU off(SI), Y2; \
	VPSUBW Y0, Y2, Y2; \
	VPMINUW Y1, Y2, Y3; \
	VPCMPEQW Y3, Y2, Y2; \
	VEXTRACTI128 $1, Y2, X3; \
	VPACKSSWB X3, X2, X2; \
	VPMOVMSKB X2, R13

// LANE2x2 sets R13 to the match bits of the 32 2-byte values at off(SI):
// VPACKSSWB packs the two vectors' word masks to bytes within each
// 128-bit half, and VPERMQ puts the halves in row order.
#define LANE2x2(off) \
	VMOVDQU off(SI), Y2; \
	VMOVDQU (off+32)(SI), Y3; \
	VPSUBW Y0, Y2, Y2; \
	VPSUBW Y0, Y3, Y3; \
	VPMINUW Y1, Y2, Y4; \
	VPMINUW Y1, Y3, Y5; \
	VPCMPEQW Y4, Y2, Y2; \
	VPCMPEQW Y5, Y3, Y3; \
	VPACKSSWB Y3, Y2, Y2; \
	VPERMQ $0xD8, Y2, Y2; \
	VPMOVMSKB Y2, R13

// LANE4 sets R13 to the match bits of the 8 4-byte values at off(SI).
#define LANE4(off) \
	VMOVDQU off(SI), Y2; \
	VPSUBD Y0, Y2, Y2; \
	VPMINUD Y1, Y2, Y3; \
	VPCMPEQD Y3, Y2, Y2; \
	VMOVMSKPS Y2, R13

// LANE8 sets R13 to the NON-match bits of the 4 int64 values at off(SI).
#define LANE8(off) \
	VMOVDQU off(SI), Y2; \
	VPSUBQ Y0, Y2, Y2; \
	VPCMPGTQ Y1, Y2, Y2; \
	VMOVMSKPD Y2, R13

// OR sets R13's bits at row sh of the filter's word R12.
#define OR(sh) \
	SHLQ $sh, R13; \
	ORQ  R13, R12

// PFSPAN issues PREFETCHT0 for the AX bytes at SI (AX >= 1): their first
// two lines and the line of their last byte, which is all of them for a
// head of up to 129 bytes, without a branch.
#define PFSPAN \
	PREFETCHT0 (SI); \
	PREFETCHT0 64(SI); \
	PREFETCHT0 -1(SI)(AX*1)

// func laneRangesAVX2(fs *laneFilter, k int, ranges *Range, nr, rows int, agg *int64, sel *uint64) (count uint64, sum int64)
// The plan kernel over nr >= 1 ranges, each clamped to [0, rows) first
// (an empty one scans nothing): it counts the rows that match all k >= 0
// filters and, when agg (row 0 of the SUM column) is non-nil, sums agg
// over them. An exact range counts its length, and reads agg under
// all-ones words for a SUM. Before each range it prefetches the head of
// every filter's lane, and of agg, for the range two on (prefetchAhead),
// unless that one is exact. With sel non-nil it is the selection stage
// instead: it stores the words of its one non-exact range at sel, one
// after another, and counts and sums nothing. fs[j] is a laneFilter:
// vals at 0, lo at 24, width at 32, shift at 40, 48 bytes apart;
// ranges[i] is a Range: Start at 0, End at 8, Exact at 16, 24 bytes
// apart.
//
// A range of 512 rows or more has its whole 64-row blocks scanned in
// chunks of up to 16 (their words on the stack, or in sel): the words
// start all-ones, each filter in turn ANDs its words of the chunk into
// them — its splats loaded and its lane chosen once a chunk, its
// prefetch 1-2 KiB ahead in its own stream — and then they are folded.
// The rest, which is all of most planned ranges, goes block by block,
// each block's word in a register: it starts as the block's rows, each
// filter ANDs its word into it, and it is folded at once. Such a block
// reads a 1-byte lane's 2 vectors whole, a 2- or 4-byte lane's in pairs
// (64 bytes), and the int64 column's one by one up to a masked last.
//
// Registers: DI the filters, R8 their end, R14 the range cursor, R11 the
// count (unused with sel), BX the first row of the chunk or block, R10
// the range's rows left from it, DX the chunk's words (the next one in
// sel), R9 the filter cursor, SI its lane, CX the word, AX the filter's
// rows left in a chunk or the block's word, R12 a filter's word, R13
// scratch. Y0/Y1 the lo/width splats, Y2-Y5 scratch, Y6 all-ones, Y8/Y9
// the SUM masks and Y14/Y15 the sum. Stack: the words at 0, the ranges'
// end at 128, the chunk's rows at 136.
TEXT ·laneRangesAVX2(SB), NOSPLIT, $144-72
	MOVQ fs+0(FP), DI
	MOVQ k+8(FP), R8
	IMUL3Q $48, R8, R8
	ADDQ DI, R8
	MOVQ ranges+16(FP), R14
	MOVQ nr+24(FP), AX
	IMUL3Q $24, AX, AX
	ADDQ R14, AX
	MOVQ AX, 128(SP)
	XORQ R11, R11
	VPCMPEQB Y6, Y6, Y6
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15

lr_range:                       // prefetch the head of the range two on
	LEAQ 48(R14), R13
	CMPQ R13, 128(SP)
	JAE  lr_scan
	CMPB 16(R13), $0
	JNE  lr_scan
	MOVQ (R13), BX
	MOVQ 8(R13), R10
	SUBQ BX, R10
	MOVQ $64, AX
	CMPQ R10, AX
	CMOVQHI AX, R10             // at most 64 rows (an inverted range wraps here too)
	MOVQ DI, R9
lr_pffilter:
	CMPQ R9, R8
	JAE  lr_pfagg
	MOVBLZX 40(R9), CX
	MOVQ BX, SI
	SHLQ CX, SI
	ADDQ (R9), SI
	MOVQ R10, AX
	SHLQ CX, AX
	PFSPAN
	ADDQ $48, R9
	JMP  lr_pffilter
lr_pfagg:
	MOVQ agg+40(FP), SI
	TESTQ SI, SI
	JZ   lr_scan
	LEAQ (SI)(BX*8), SI
	MOVQ R10, AX
	SHLQ $3, AX
	PFSPAN

lr_scan:                        // clamp the range to [0, rows)
	MOVQ (R14), BX
	MOVQ 8(R14), R10
	XORQ AX, AX
	CMPQ BX, AX
	CMOVQLT AX, BX
	MOVQ rows+32(FP), AX
	CMPQ R10, AX
	CMOVQGT AX, R10
	SUBQ BX, R10                // rows
	JLE  lr_next
	CMPB 16(R14), $0
	JNE  lr_exact
	MOVQ sel+48(FP), DX
	TESTQ DX, DX
	JNZ  lr_whole
lr_words:
	LEAQ 0(SP), DX
lr_whole:                       // up to 16 whole blocks from BX, their words at DX
	TESTQ R10, R10
	JLE  lr_next
	CMPQ R10, $512
	JB   lr_block               // fewer than 8 whole blocks: block by block
	MOVQ R10, AX
	ANDQ $-64, AX
	CMPQ AX, $1024
	JBE  lr_chunk
	MOVQ $1024, AX
lr_chunk:                       // the words start all-ones (Y6)
	MOVQ AX, 136(SP)
	CMPQ sel+48(FP), $0
	JNE  lr_initsel
	VMOVDQU Y6, (DX)
	VMOVDQU Y6, 32(DX)
	VMOVDQU Y6, 64(DX)
	VMOVDQU Y6, 96(DX)
	JMP  lr_inited
lr_initsel:                     // only the chunk's words of sel
	MOVQ DX, CX
lr_initword:
	MOVQ $-1, (CX)
	ADDQ $8, CX
	SUBQ $64, AX
	JG   lr_initword
lr_inited:
	MOVQ DI, R9
lr_filter:
	CMPQ R9, R8
	JAE  lr_fold
	MOVQ (R9), SI
	MOVQ 136(SP), AX
	MOVQ DX, CX
	MOVBLZX 40(R9), R13
	CMPL R13, $1
	JE   lr_lane2
	JA   lr_lanewide

	// 1 byte: 32 rows a vector.
	VPBROADCASTB 24(R9), Y0
	VPBROADCASTB 32(R9), Y1
	ADDQ BX, SI
	SUBQ $128, AX
	JL   lr_lane1one
lr_lane1pair:                   // two blocks a trip
	BLOCK1(0, 0)
	BLOCK1(64, 8)
	PREFETCHT0 1024(SI)
	PREFETCHT0 1088(SI)
	ADDQ $128, SI
	ADDQ $16, CX
	SUBQ $128, AX
	JGE  lr_lane1pair
lr_lane1one:
	ADDQ $128, AX               // 0 or 64 rows left
	JZ   lr_nextfilter
	BLOCK1(0, 0)
lr_nextfilter:
	ADDQ $48, R9
	JMP  lr_filter

lr_fold:                        // fold the chunk's words, or leave them in sel
	MOVQ 136(SP), AX
	SHRQ $3, AX
	LEAQ (DX)(AX*1), R12        // the words' end
	CMPQ sel+48(FP), $0
	JNE  lr_selnext
	CMPQ agg+40(FP), $0
	JNE  lr_foldsum
lr_foldcount:
	POPCNTQ (DX), R13
	ADDQ R13, R11
	ADDQ $8, DX
	CMPQ DX, R12
	JB   lr_foldcount
	MOVQ 136(SP), AX
	ADDQ AX, BX
	SUBQ AX, R10
	JMP  lr_words
lr_foldsum:
	MOVQ (DX), AX
	POPCNTQ AX, R13
	ADDQ R13, R11
	SUM64(lr_near, lr_high, lr_summed)
	ADDQ $64, BX
	SUBQ $64, R10
	ADDQ $8, DX
	CMPQ DX, R12
	JB   lr_foldsum
	JMP  lr_words
lr_selnext:
	MOVQ R12, DX
	MOVQ 136(SP), AX
	ADDQ AX, BX
	SUBQ AX, R10
	JMP  lr_whole

lr_lane2:                       // 2 bytes: 16 rows a vector
	VPBROADCASTW 24(R9), Y0
	VPBROADCASTW 32(R9), Y1
	LEAQ (SI)(BX*2), SI
lr_lane2block:
	LANE2x2(0)
	MOVQ R13, R12
	LANE2x2(64)
	OR(32)
	PREFETCHT0 2048(SI)
	PREFETCHT0 2112(SI)
	ANDQ R12, (CX)
	ADDQ $128, SI
	ADDQ $8, CX
	SUBQ $64, AX
	JG   lr_lane2block
	JMP  lr_nextfilter

lr_lanewide:                    // 4 bytes: 8 rows a vector
	CMPL R13, $2
	JA   lr_lane8
	VPBROADCASTD 24(R9), Y0
	VPBROADCASTD 32(R9), Y1
	LEAQ (SI)(BX*4), SI
lr_lane4block:
	LANE4(0)
	MOVQ R13, R12
	LANE4(32)
	OR(8)
	LANE4(64)
	OR(16)
	LANE4(96)
	OR(24)
	LANE4(128)
	OR(32)
	LANE4(160)
	OR(40)
	LANE4(192)
	OR(48)
	LANE4(224)
	OR(56)
	PREFETCHT0 2048(SI)
	PREFETCHT0 2112(SI)
	PREFETCHT0 2176(SI)
	PREFETCHT0 2240(SI)
	ANDQ R12, (CX)
	ADDQ $256, SI
	ADDQ $8, CX
	SUBQ $64, AX
	JG   lr_lane4block
	JMP  lr_nextfilter

lr_lane8:                       // 8 bytes, the int64 column: R12 gathers non-match bits
	VPBROADCASTQ 24(R9), Y0
	VPBROADCASTQ 32(R9), Y1
	LEAQ (SI)(BX*8), SI
lr_lane8block:
	LANE8(0)
	MOVQ R13, R12
	LANE8(32)
	OR(4)
	PREFETCHT0 2048(SI)
	LANE8(64)
	OR(8)
	LANE8(96)
	OR(12)
	PREFETCHT0 2112(SI)
	LANE8(128)
	OR(16)
	LANE8(160)
	OR(20)
	PREFETCHT0 2176(SI)
	LANE8(192)
	OR(24)
	LANE8(224)
	OR(28)
	PREFETCHT0 2240(SI)
	LANE8(256)
	OR(32)
	LANE8(288)
	OR(36)
	PREFETCHT0 2304(SI)
	LANE8(320)
	OR(40)
	LANE8(352)
	OR(44)
	PREFETCHT0 2368(SI)
	LANE8(384)
	OR(48)
	LANE8(416)
	OR(52)
	PREFETCHT0 2432(SI)
	LANE8(448)
	OR(56)
	LANE8(480)
	OR(60)
	PREFETCHT0 2496(SI)
	NOTQ R12
	ANDQ R12, (CX)
	ADDQ $512, SI
	ADDQ $8, CX
	SUBQ $64, AX
	JG   lr_lane8block
	JMP  lr_nextfilter

lr_block:                       // min(R10, 64) rows at BX, their word in AX
	MOVQ $-1, AX
	CMPQ R10, $64
	JAE  lr_blockrows
	MOVQ R10, CX
	SHLQ CX, AX
	NOTQ AX
lr_blockrows:
	MOVQ DI, R9
	CMPQ R9, R8
	JAE  lr_blockword
lr_blockfilter:
	MOVQ (R9), SI
	MOVBLZX 40(R9), R13
	CMPL R13, $1
	JE   lr_block2
	JA   lr_blockwide

	// 1 byte: both vectors, whatever the rows.
	VPBROADCASTB 24(R9), Y0
	VPBROADCASTB 32(R9), Y1
	ADDQ BX, SI
	LANE1(0)
	MOVQ R13, R12
	LANE1(32)
	OR(32)
	PREFETCHT0 512(SI)
lr_blockand:
	ANDQ R12, AX
	ADDQ $48, R9
	CMPQ R9, R8
	JB   lr_blockfilter
lr_blockword:
	CMPQ sel+48(FP), $0
	JNE  lr_blockstore
	POPCNTQ AX, R12
	ADDQ R12, R11
	CMPQ agg+40(FP), $0
	JEQ  lr_blocknext
	SUM64(lr_blocknear, lr_blockhigh, lr_blocksummed)
lr_blocknext:
	ADDQ $64, BX
	SUBQ $64, R10
	JG   lr_block
	JMP  lr_next
lr_blockstore:
	MOVQ AX, (DX)
	ADDQ $8, DX
	JMP  lr_blocknext

lr_block2:                      // 2 bytes: 32 rows a pair of vectors
	VPBROADCASTW 24(R9), Y0
	VPBROADCASTW 32(R9), Y1
	LEAQ (SI)(BX*2), SI
	LANE2x2(0)
	MOVQ R13, R12
	CMPQ R10, $32
	JBE  lr_blockand
	LANE2x2(64)
	OR(32)
	JMP  lr_blockand

lr_blockwide:                   // 4 bytes: 16 rows a pair of vectors
	CMPL R13, $2
	JA   lr_block8
	VPBROADCASTD 24(R9), Y0
	VPBROADCASTD 32(R9), Y1
	LEAQ (SI)(BX*4), SI
	LANE4(0)
	MOVQ R13, R12
	LANE4(32)
	OR(8)
	CMPQ R10, $16
	JBE  lr_blockand
	LANE4(64)
	OR(16)
	LANE4(96)
	OR(24)
	CMPQ R10, $32
	JBE  lr_blockand
	LANE4(128)
	OR(32)
	LANE4(160)
	OR(40)
	CMPQ R10, $48
	JBE  lr_blockand
	LANE4(192)
	OR(48)
	LANE4(224)
	OR(56)
	JMP  lr_blockand

lr_block8:                      // 8 bytes: whole vectors, then a masked one
	VPBROADCASTQ 24(R9), Y0
	VPBROADCASTQ 32(R9), Y1
	LEAQ (SI)(BX*8), SI
	XORQ R12, R12
	XORQ CX, CX                 // the vector's first row
lr_block8vec:
	MOVQ R10, R13
	SUBQ CX, R13                // rows left from it
	CMPQ R13, $4
	JB   lr_block8mask
	VMOVDQU (SI)(CX*8), Y2
lr_block8cmp:
	VPSUBQ Y0, Y2, Y2
	VPCMPGTQ Y1, Y2, Y2
	VMOVMSKPD Y2, R13
	SHLQ CX, R13
	ORQ  R13, R12
	ADDQ $4, CX
	CMPQ CX, R10
	JAE  lr_block8done
	CMPQ CX, $64
	JB   lr_block8vec
lr_block8done:
	NOTQ R12
	JMP  lr_blockand
lr_block8mask:                   // 1-3 rows: load only those
	VMOVQ R13, X3
	VPBROADCASTQ X3, Y3
	VPCMPGTQ laneIota<>(SB), Y3, Y3
	VPMASKMOVQ (SI)(CX*8), Y3, Y2
	JMP  lr_block8cmp

lr_exact:
	ADDQ R10, R11
	CMPQ agg+40(FP), $0
	JEQ  lr_next
lr_exactblock:
	MOVQ $-1, AX
	CMPQ R10, $64
	JAE  lr_exactrows
	MOVQ R10, CX
	SHLQ CX, AX
	NOTQ AX
lr_exactrows:
	SUM64(lr_exactnear, lr_exacthigh, lr_exactsummed)
	ADDQ $64, BX
	SUBQ $64, R10
	JG   lr_exactblock

lr_next:
	ADDQ $24, R14
	CMPQ R14, 128(SP)
	JB   lr_range

	VPADDQ Y15, Y14, Y14
	VEXTRACTI128 $1, Y14, X0
	VPADDQ X0, X14, X14
	VPSRLDQ $8, X14, X0
	VPADDQ X0, X14, X14
	VMOVQ X14, AX
	VZEROUPPER
	MOVQ R11, count+56(FP)
	MOVQ AX, sum+64(FP)
	RET
