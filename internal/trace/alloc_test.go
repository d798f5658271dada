package trace

import (
	"testing"
)

// TestStackReleasedAfterDeepForest is the regression test for the
// Limit-era leak: a single deep navigation grew the causal stack's
// backing array, and the recorder retained that capacity for its whole
// lifetime (one recorder per pooled engine then — effectively forever).
// Closing the root of a deep forest must now drop the array.
func TestStackReleasedAfterDeepForest(t *testing.T) {
	r := New()
	depth := stackRetainCap * 4
	spans := make([]*Span, 0, depth)
	for i := 0; i < depth; i++ {
		spans = append(spans, r.Begin("op", "d"))
	}
	if cap(r.stack) < depth {
		t.Fatalf("stack cap = %d, expected at least %d mid-navigation", cap(r.stack), depth)
	}
	for i := depth - 1; i >= 0; i-- {
		r.End(spans[i])
	}
	if cap(r.stack) != 0 {
		t.Fatalf("stack cap = %d after deep root closed, want 0 (array released)", cap(r.stack))
	}
	// Shallow traffic afterwards keeps its small array.
	sp := r.Begin("op", "d")
	r.End(sp)
	if c := cap(r.stack); c == 0 || c > stackRetainCap {
		t.Fatalf("stack cap = %d after shallow span, want small and retained", c)
	}
	// Take on an overgrown stack releases too (mid-navigation reset).
	for i := 0; i < depth; i++ {
		r.Begin("op", "d")
	}
	r.Take()
	if cap(r.stack) != 0 {
		t.Fatalf("stack cap = %d after Take with deep stack, want 0", cap(r.stack))
	}
}

// TestNilRecorderZeroAllocs pins the opt-in contract benchmarked since
// the observability PR: untraced sessions pay nothing.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Begin("client", "d")
		r.End(sp)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder Begin/End allocates %.1f/op, want 0", allocs)
	}
}

// TestRecorderSteadyStateAllocs pins the live-recorder hot path at one
// allocation per span (the span itself): with Limit bounding the root
// slice, neither the roots append, the stack, nor the release logic may
// allocate at steady state.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	r := New()
	r.Limit = 4
	for i := 0; i < 16; i++ { // warm the roots and stack arrays
		sp := r.Begin("client", "d")
		r.End(sp)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.Begin("client", "d")
		r.End(sp)
	})
	if allocs > 1 {
		t.Fatalf("recorder Begin/End allocates %.1f/op at steady state, want 1", allocs)
	}
}
