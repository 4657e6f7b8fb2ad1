package wstats

import "sort"

// hhEntry is one monitored fingerprint in the space-saving sketch.
type hhEntry struct {
	key   Fingerprint
	shape string
	// count is the space-saving estimate: an overestimate of the true
	// occurrence count, by at most errBound.
	count    uint64
	errBound uint64
	lat      latHist // latency of occurrences observed while monitored
}

// spaceSaving is the Metwally et al. space-saving heavy-hitter sketch: at
// most k monitored entries; an unmonitored arrival evicts the current
// minimum and inherits its count as an error bound. Guarantees, with n
// the stream length: every entry's estimate is in [true, true+errBound],
// and any item with true count > n/k is always monitored. The randomized
// differential test (topk_test.go) checks both against an exact oracle.
//
// The sketch is guarded by the collector's mutex; no locking of its own.
// Eviction scans all k entries for the minimum — O(k) with k≈64, paid
// only on the sampled stream, which keeps the structure trivially simple
// next to the textbook min-heap + linked-bucket construction.
type spaceSaving struct {
	k int
	n uint64 // observed stream length
	m map[Fingerprint]*hhEntry
}

func newSpaceSaving(k int) *spaceSaving {
	return &spaceSaving{k: k, m: make(map[Fingerprint]*hhEntry, k)}
}

// observe records one occurrence. shape is resolved lazily — only
// insertions (new or evicting) pay for rendering the shape string.
func (t *spaceSaving) observe(key Fingerprint, ns int64, shape func() string) {
	t.n++
	if e, ok := t.m[key]; ok {
		e.count++
		e.lat.record(ns)
		return
	}
	if len(t.m) < t.k {
		e := &hhEntry{key: key, shape: shape(), count: 1}
		e.lat.record(ns)
		t.m[key] = e
		return
	}
	var min *hhEntry
	for _, e := range t.m {
		if min == nil || e.count < min.count {
			min = e
		}
	}
	delete(t.m, min.key)
	// The newcomer takes over the minimum's counter: its true count is at
	// most the inherited value, which becomes the error bound.
	min.key, min.shape, min.errBound = key, shape(), min.count
	min.count++
	min.lat.reset()
	min.lat.record(ns)
	t.m[key] = min
}

// top returns up to n entries, most frequent first. The returned slice
// aliases live sketch entries; callers snapshot the fields they need
// before releasing the collector lock.
func (t *spaceSaving) top(n int) []*hhEntry {
	out := make([]*hhEntry, 0, len(t.m))
	for _, e := range t.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return out[i].key < out[j].key // deterministic order for ties
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// estimate returns the sketch's count estimate and error bound for key,
// or ok=false if the key is not currently monitored.
func (t *spaceSaving) estimate(key Fingerprint) (est, errBound uint64, ok bool) {
	e, ok := t.m[key]
	if !ok {
		return 0, 0, false
	}
	return e.count, e.errBound, true
}
