//go:build race

package testutil

// RaceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool deliberately drops a share of Puts, so tests asserting
// allocations per operation through a pool skip themselves.
const RaceEnabled = true
