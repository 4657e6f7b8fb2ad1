//go:build !amd64 || purego

package colstore

// Portable build: the byte-code counts always run on the portable walk.

func groupCountCodes(codes []byte, sel []uint64, counts []uint64, n int) {
	groupCountCodesPortable(codes, sel, counts)
}
