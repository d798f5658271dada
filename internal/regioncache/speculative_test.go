package regioncache

import (
	"testing"
)

// fill writes n labels into distinct children of the entry's root so its
// accounted bytes grow deterministically.
func fill(e *Entry, n int) {
	for i := 0; i < n; i++ {
		e.storeChild(nil, i, true)
		e.storeLabel([]int{i}, "xxxxxxxxxxxxxxxx")
	}
}

func TestSpeculativeLedgerSeparate(t *testing.T) {
	c := New(0)
	d := c.Entry("demand", "fp-d", 1)
	s := c.Open(Key{Generation: c.Generation(), Registry: 1, Name: "spec", Fingerprint: "fp-s"}, true)
	if d.Speculative() || !s.Speculative() {
		t.Fatalf("classes: demand=%v spec=%v", d.Speculative(), s.Speculative())
	}
	fill(d, 3)
	fill(s, 5)
	st := c.Stats()
	if st.SpecEntries != 1 {
		t.Fatalf("SpecEntries = %d; want 1", st.SpecEntries)
	}
	if st.SpecBytes <= 0 || st.Bytes <= 0 {
		t.Fatalf("ledgers: bytes=%d specBytes=%d; both must be positive", st.Bytes, st.SpecBytes)
	}
	// The ledgers partition the total exactly (no concurrency here).
	want := int64(0)
	c.mu.Lock()
	for _, e := range c.entries {
		e.mu.Lock()
		want += e.bytes
		e.mu.Unlock()
	}
	c.mu.Unlock()
	if st.Bytes+st.SpecBytes != want {
		t.Fatalf("bytes %d + specBytes %d != entry total %d", st.Bytes, st.SpecBytes, want)
	}
}

func TestDemandOpenPromotesSpeculativeEntry(t *testing.T) {
	c := New(0)
	s := c.Open(Key{Generation: c.Generation(), Registry: 1, Name: "v", Fingerprint: "fp"}, true)
	fill(s, 4)
	before := c.Stats()
	if before.SpecEntries != 1 || before.SpecBytes == 0 {
		t.Fatalf("pre-promotion stats: %+v", before)
	}
	d := c.Entry("v", "fp", 1)
	if d != s {
		t.Fatal("demand open returned a different entry for the same key")
	}
	if d.Speculative() {
		t.Fatal("demand open left the entry speculative")
	}
	after := c.Stats()
	if after.SpecEntries != 0 || after.SpecBytes != 0 {
		t.Fatalf("post-promotion spec ledger not empty: %+v", after)
	}
	if after.Bytes != before.Bytes+before.SpecBytes {
		t.Fatalf("promotion lost bytes: before %+v, after %+v", before, after)
	}
	// Later growth lands in the demand ledger.
	fill(d, 8)
	grown := c.Stats()
	if grown.SpecBytes != 0 || grown.Bytes <= after.Bytes {
		t.Fatalf("post-promotion growth: %+v", grown)
	}
}

func TestSpeculativeNeverDemotesDemandEntry(t *testing.T) {
	c := New(0)
	d := c.Entry("v", "fp", 1)
	s := c.Open(Key{Generation: c.Generation(), Registry: 1, Name: "v", Fingerprint: "fp"}, true)
	if s != d {
		t.Fatal("speculative open returned a different entry for the same key")
	}
	if s.Speculative() {
		t.Fatal("speculative open demoted a demand entry")
	}
	if st := c.Stats(); st.SpecEntries != 0 || st.SpecBytes != 0 {
		t.Fatalf("spec ledger charged for a demand entry: %+v", st)
	}
}

func TestSpeculativeEvictedFirst(t *testing.T) {
	// Budget sized so that adding a speculative entry after two demand
	// entries overflows: the speculative one must be the casualty even
	// though it is the most recently opened.
	c := New(0)
	d1 := c.Entry("d1", "fp1", 1)
	d2 := c.Entry("d2", "fp2", 1)
	fill(d1, 4)
	fill(d2, 4)
	base := c.Stats()
	c.maxBytes = base.Bytes + 10 // room for nothing more
	s := c.Open(Key{Generation: c.Generation(), Registry: 1, Name: "s1", Fingerprint: "fps"}, true)
	fill(s, 4)
	st := c.Stats()
	if st.SpecEntries != 0 || st.SpecBytes != 0 {
		t.Fatalf("speculative entry survived pressure: %+v", st)
	}
	if c.Peek(d1.Key()) == nil || c.Peek(d2.Key()) == nil {
		t.Fatal("a demand entry was evicted while a speculative one existed")
	}
	if c.Peek(s.Key()) != nil {
		t.Fatal("speculative entry still live over budget")
	}
	if !s.dead.Load() {
		t.Fatal("evicted speculative entry not marked dead")
	}
}

func TestDemandLRUStillAppliesAfterSpecExhausted(t *testing.T) {
	c := New(0)
	d1 := c.Entry("d1", "fp1", 1)
	fill(d1, 4)
	d2 := c.Entry("d2", "fp2", 1)
	fill(d2, 4)
	// No speculative entries: over budget, the least recently opened
	// demand entry (d1) goes, exactly as before the two-class split.
	c.mu.Lock()
	c.maxBytes = c.bytes - 1
	c.evictOverLocked()
	c.mu.Unlock()
	if c.Peek(d1.Key()) != nil {
		t.Fatal("LRU demand entry survived")
	}
	if c.Peek(d2.Key()) == nil {
		t.Fatal("MRU demand entry evicted before LRU one")
	}
}

func TestSpeculativeStaleGenerationDetached(t *testing.T) {
	c := New(0)
	gen := c.Generation()
	c.Invalidate()
	e := c.Open(Key{Generation: gen, Registry: 1, Name: "v", Fingerprint: "fp"}, true)
	if !e.dead.Load() {
		t.Fatal("stale-generation speculative entry not detached")
	}
	fill(e, 3)
	if st := c.Stats(); st.SpecBytes != 0 || st.Entries != 0 {
		t.Fatalf("detached speculative entry leaked into the cache: %+v", st)
	}
}

func TestInvalidateDropsSpeculativeLedger(t *testing.T) {
	c := New(0)
	s := c.Open(Key{Generation: c.Generation(), Registry: 1, Name: "v", Fingerprint: "fp"}, true)
	fill(s, 3)
	c.Invalidate()
	if st := c.Stats(); st.SpecEntries != 0 || st.SpecBytes != 0 {
		t.Fatalf("spec ledger survived invalidation: %+v", st)
	}
}
