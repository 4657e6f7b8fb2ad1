package sharded

// Test-only exports for the external test package (pipeline_test.go),
// which imports the root package for its Executor and so cannot live
// inside this one.

// SetMoveHook installs the hook called between the stages of a cut
// migration's persistence protocol.
func (s *Store) SetMoveHook(f func(stage string)) { s.moveHook = f }

var (
	SmallConfig = smallConfig
	SkewedRows  = skewedRows
)
