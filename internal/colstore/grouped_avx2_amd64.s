//go:build !purego

#include "textflag.h"

// AVX2 grouped-count kernel over byte-coded group columns.
//
// When a group column's value range fits in a byte window (see
// groupMetaFor), grouping degenerates to counting byte matches: the
// store keeps codes[i] = value[i] - base, the accumulator keeps one
// count per code, and selection words are consumed by comparing the 32
// code bytes of each chunk against up to 8 splatted key codes at once
// (VPCMPEQB — 32 rows per instruction instead of the selection
// kernel's 4), masking with the selection, and subtracting the 0xFF/0x00
// compare result from a per-key byte accumulator (acc - (-1) = +1 per
// match).
// Byte accumulators are widened to the uint64 counts with VPSADBW
// against zero at the end of the call, so callers must bound the rows
// per call such that no byte lane can exceed 255 increments:
// groupCountCodesAVX2 takes nWords <= 127 (each lane sees at most 2
// increments per word); the grouped scan passes at most selWords.
//
// The selection bits are expanded to byte lanes with the broadcast/
// shuffle/bit-select idiom: VPBROADCASTD replicates 32 mask bits to
// every dword lane, VPSHUFB routes byte b of the mask to byte lanes
// 8b..8b+7, VPAND with the 0x8040201008040201 bit-select pattern
// isolates each lane's bit, and VPCMPEQB against the same pattern
// turns it into a full 0xFF/0x00 byte mask.

DATA groupBitSel<>+0(SB)/8, $0x8040201008040201
DATA groupBitSel<>+8(SB)/8, $0x8040201008040201
DATA groupBitSel<>+16(SB)/8, $0x8040201008040201
DATA groupBitSel<>+24(SB)/8, $0x8040201008040201
GLOBL groupBitSel<>(SB), RODATA|NOPTR, $32

DATA groupSelShuf<>+0(SB)/8, $0x0000000000000000
DATA groupSelShuf<>+8(SB)/8, $0x0101010101010101
DATA groupSelShuf<>+16(SB)/8, $0x0202020202020202
DATA groupSelShuf<>+24(SB)/8, $0x0303030303030303
GLOBL groupSelShuf<>(SB), RODATA|NOPTR, $32

// func groupCountCodesAVX2(codes *byte, sel *uint64, nWords int, splat *byte, counts *uint64)
// Adds, for each of 8 key codes, the number of selected rows whose byte
// code equals that key. splat holds the 8 keys as 32-byte broadcast
// blocks (key k at splat[k*32:]; pad unused keys with 0xFF, which no
// code reaches); counts is 8 uint64 slots added into in place. sel is
// nWords 64-row selection masks over codes[0:nWords*64]. nWords <= 127.
TEXT ·groupCountCodesAVX2(SB), NOSPLIT, $0-40
	MOVQ codes+0(FP), SI
	MOVQ sel+8(FP), DI
	MOVQ nWords+16(FP), R13
	MOVQ splat+24(FP), R12
	MOVQ counts+32(FP), R10
	VMOVDQU groupBitSel<>(SB), Y2
	VMOVDQU groupSelShuf<>(SB), Y3
	VPXOR Y8, Y8, Y8            // 8 per-key byte accumulators
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	VPXOR Y12, Y12, Y12
	VPXOR Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	TESTQ R13, R13
	JZ   gcc_done
gcc_word:
	MOVQ (DI), R11
	TESTQ R11, R11
	JZ   gcc_skip
	PREFETCHT0 1024(SI)

	// Rows 0..31: selection bits 0..31.
	VPBROADCASTD (DI), Y6
	VPSHUFB Y3, Y6, Y6
	VPAND Y2, Y6, Y6
	VPCMPEQB Y2, Y6, Y6         // 0xFF per selected row
	VMOVDQU (SI), Y4            // 32 codes
	VPCMPEQB (R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y8, Y8
	VPCMPEQB 32(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y9, Y9
	VPCMPEQB 64(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y10, Y10
	VPCMPEQB 96(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y11, Y11
	VPCMPEQB 128(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y12, Y12
	VPCMPEQB 160(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y13, Y13
	VPCMPEQB 192(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y14, Y14
	VPCMPEQB 224(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y15, Y15

	// Rows 32..63: selection bits 32..63.
	VPBROADCASTD 4(DI), Y6
	VPSHUFB Y3, Y6, Y6
	VPAND Y2, Y6, Y6
	VPCMPEQB Y2, Y6, Y6
	VMOVDQU 32(SI), Y4
	VPCMPEQB (R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y8, Y8
	VPCMPEQB 32(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y9, Y9
	VPCMPEQB 64(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y10, Y10
	VPCMPEQB 96(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y11, Y11
	VPCMPEQB 128(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y12, Y12
	VPCMPEQB 160(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y13, Y13
	VPCMPEQB 192(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y14, Y14
	VPCMPEQB 224(R12), Y4, Y7
	VPAND Y6, Y7, Y7
	VPSUBB Y7, Y15, Y15

	ADDQ $64, SI
	ADDQ $8, DI
	DECQ R13
	JNZ  gcc_word
	JMP  gcc_done
gcc_skip:
	ADDQ $64, SI
	ADDQ $8, DI
	DECQ R13
	JNZ  gcc_word
gcc_done:
	// Widen the byte accumulators (VPSADBW vs zero: 4 qword partial sums
	// per register), reduce each to a scalar, add into counts.
	VPXOR Y5, Y5, Y5
	VPSADBW Y5, Y8, Y8
	VPSADBW Y5, Y9, Y9
	VPSADBW Y5, Y10, Y10
	VPSADBW Y5, Y11, Y11
	VPSADBW Y5, Y12, Y12
	VPSADBW Y5, Y13, Y13
	VPSADBW Y5, Y14, Y14
	VPSADBW Y5, Y15, Y15
	VEXTRACTI128 $1, Y8, X7
	VPADDQ X7, X8, X8
	VPSRLDQ $8, X8, X7
	VPADDQ X7, X8, X8
	VEXTRACTI128 $1, Y9, X7
	VPADDQ X7, X9, X9
	VPSRLDQ $8, X9, X7
	VPADDQ X7, X9, X9
	VEXTRACTI128 $1, Y10, X7
	VPADDQ X7, X10, X10
	VPSRLDQ $8, X10, X7
	VPADDQ X7, X10, X10
	VEXTRACTI128 $1, Y11, X7
	VPADDQ X7, X11, X11
	VPSRLDQ $8, X11, X7
	VPADDQ X7, X11, X11
	VEXTRACTI128 $1, Y12, X7
	VPADDQ X7, X12, X12
	VPSRLDQ $8, X12, X7
	VPADDQ X7, X12, X12
	VEXTRACTI128 $1, Y13, X7
	VPADDQ X7, X13, X13
	VPSRLDQ $8, X13, X7
	VPADDQ X7, X13, X13
	VEXTRACTI128 $1, Y14, X7
	VPADDQ X7, X14, X14
	VPSRLDQ $8, X14, X7
	VPADDQ X7, X14, X14
	VEXTRACTI128 $1, Y15, X7
	VPADDQ X7, X15, X15
	VPSRLDQ $8, X15, X7
	VPADDQ X7, X15, X15
	VZEROUPPER
	MOVQ X8, AX
	ADDQ AX, (R10)
	MOVQ X9, AX
	ADDQ AX, 8(R10)
	MOVQ X10, AX
	ADDQ AX, 16(R10)
	MOVQ X11, AX
	ADDQ AX, 24(R10)
	MOVQ X12, AX
	ADDQ AX, 32(R10)
	MOVQ X13, AX
	ADDQ AX, 40(R10)
	MOVQ X14, AX
	ADDQ AX, 48(R10)
	MOVQ X15, AX
	ADDQ AX, 56(R10)
	RET
