package predict

import (
	"fmt"
	"sync"
	"testing"
)

func key(gen uint64) Key {
	return Key{Generation: gen, Registry: 1, Name: "homes", Fingerprint: "fp"}
}

func TestPredictNeedsSupport(t *testing.T) {
	m := NewModel(0)
	k := key(1)
	if _, _, _, ok := m.Predict(k, 0); ok {
		t.Fatal("empty model predicted")
	}
	m.Observe(k, -1, 0)
	if _, _, _, ok := m.Predict(k, 0); ok {
		t.Fatal("one observation cleared MinSupport")
	}
	m.Observe(k, 0, 1)
	next, _, conf, ok := m.Predict(k, 1)
	if !ok || next != 2 {
		t.Fatalf("Predict = %d, %v; want 2, true", next, ok)
	}
	if conf != 1.0 {
		t.Fatalf("conf = %v; want 1.0", conf)
	}
}

func TestDeltaGeneralizesAcrossPositions(t *testing.T) {
	// Two advances observed near the start of the answer must predict an
	// advance anywhere: delta space, not (from, to) pairs.
	m := NewModel(0)
	k := key(1)
	m.Observe(k, -1, 0)
	m.Observe(k, 0, 1)
	next, _, _, ok := m.Predict(k, 40)
	if !ok || next != 41 {
		t.Fatalf("Predict(40) = %d, %v; want 41, true", next, ok)
	}
}

func TestConfidenceDilutedByMixedDeltas(t *testing.T) {
	m := NewModel(0)
	k := key(1)
	m.Observe(k, 0, 1)
	m.Observe(k, 1, 2)
	m.Observe(k, 2, 0) // a jump back
	next, _, conf, ok := m.Predict(k, 2)
	if !ok || next != 3 {
		t.Fatalf("Predict = %d, %v; want 3, true", next, ok)
	}
	if conf <= 0.5 || conf >= 0.7 {
		t.Fatalf("conf = %v; want 2/3", conf)
	}
}

func TestNegativePredictionSuppressed(t *testing.T) {
	m := NewModel(0)
	k := key(1)
	m.Observe(k, 3, 1)
	m.Observe(k, 5, 3)
	if next, _, _, ok := m.Predict(k, 1); ok {
		t.Fatalf("Predict(1) = %d, true; a negative region index must not predict", next)
	}
	// From a position where cur+delta stays valid, the −2 pattern holds.
	if next, _, _, ok := m.Predict(k, 6); !ok || next != 4 {
		t.Fatalf("Predict(6) = %d, %v; want 4, true", next, ok)
	}
}

func TestOverflowDeltasNeverPredict(t *testing.T) {
	m := NewModel(0)
	k := key(1)
	m.Observe(k, 0, 100)
	m.Observe(k, 100, 200)
	if next, _, _, ok := m.Predict(k, 0); ok {
		t.Fatalf("Predict = %d, true; overflow buckets must not yield a concrete region", next)
	}
	// But they dilute a real pattern's confidence.
	m.Observe(k, 0, 1)
	m.Observe(k, 1, 2)
	_, _, conf, ok := m.Predict(k, 2)
	if !ok || conf != 0.5 {
		t.Fatalf("conf = %v, %v; want 0.5, true", conf, ok)
	}
}

func TestDrillBit(t *testing.T) {
	m := NewModel(0)
	k := key(1)
	m.Observe(k, -1, 0)
	m.Observe(k, 0, 1)
	m.ObserveDrill(k)
	m.ObserveDrill(k)
	if _, deep, _, ok := m.Predict(k, 1); !ok || !deep {
		t.Fatalf("deep = %v, ok = %v; drilling sessions should predict deep", deep, ok)
	}
	mg := NewModel(0)
	mg.Observe(k, -1, 0)
	mg.Observe(k, 0, 1)
	if _, deep, _, ok := mg.Predict(k, 1); !ok || deep {
		t.Fatalf("deep = %v, ok = %v; glance sessions should predict shallow", deep, ok)
	}
}

func TestDeepPresumedUntilSupport(t *testing.T) {
	m := NewModel(0)
	k := key(1)
	if !m.Deep(k) {
		t.Fatal("a view with no table is not presumed deep")
	}
	m.Observe(k, -1, 0)
	if !m.Deep(k) {
		t.Fatal("a table below MinSupport is not presumed deep")
	}
	m.Observe(k, 0, 1)
	if m.Deep(k) {
		t.Fatal("MinSupport engagements without a drill still read deep")
	}
	m.ObserveDrill(k)
	if _, deep, _, _ := m.Predict(k, 1); !m.Deep(k) || !deep {
		t.Fatalf("one drill in two engagements: Deep = %v, Predict's bit = %v; want both deep", m.Deep(k), deep)
	}
}

func TestEvictBelow(t *testing.T) {
	m := NewModel(0)
	old, cur := key(1), key(2)
	m.Observe(old, 0, 1)
	m.Observe(old, 1, 2)
	m.Observe(cur, 0, 1)
	m.Observe(cur, 1, 2)
	m.EvictBelow(2)
	if _, _, _, ok := m.Predict(old, 1); ok {
		t.Fatal("stale-generation table survived EvictBelow")
	}
	if _, _, _, ok := m.Predict(cur, 1); !ok {
		t.Fatal("current-generation table evicted")
	}
	if s := m.Stats(); s.Keys != 1 || s.Evicted != 1 {
		t.Fatalf("Stats = %+v; want Keys 1, Evicted 1", s)
	}
}

func TestBoundedTables(t *testing.T) {
	m := NewModel(4)
	for i := 0; i < 10; i++ {
		k := Key{Generation: 1, Name: fmt.Sprintf("v%d", i)}
		m.Observe(k, 0, 1)
	}
	if s := m.Stats(); s.Keys != 4 || s.Evicted != 6 {
		t.Fatalf("Stats = %+v; want Keys 4, Evicted 6", s)
	}
	// The newest keys survive.
	if _, _, _, ok := m.Predict(Key{Generation: 1, Name: "v0"}, 0); ok {
		t.Fatal("oldest key survived bounding")
	}
}

func TestDecayBoundsCounters(t *testing.T) {
	m := NewModel(0)
	k := key(1)
	for i := 0; i < 3*decayCap; i++ {
		m.Observe(k, 0, 1)
	}
	t0 := m.lookup(k, false)
	if tot := t0.total.Load(); tot > decayCap+1 {
		t.Fatalf("total = %d after decay; want <= %d", tot, decayCap+1)
	}
	if next, _, conf, ok := m.Predict(k, 5); !ok || next != 6 || conf < 0.99 {
		t.Fatalf("post-decay Predict = %d, conf %v, ok %v", next, conf, ok)
	}
}

func TestConcurrentObservePredict(t *testing.T) {
	m := NewModel(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := Key{Generation: 1, Name: fmt.Sprintf("v%d", g%4)}
			for i := 0; i < 2000; i++ {
				m.Observe(k, i%7, i%7+1)
				m.Predict(k, i%7)
				if i%100 == 0 {
					m.ObserveDrill(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if s := m.Stats(); s.Observed != 16000 {
		t.Fatalf("Observed = %d; want 16000", s.Observed)
	}
	for g := 0; g < 4; g++ {
		k := Key{Generation: 1, Name: fmt.Sprintf("v%d", g)}
		if next, _, _, ok := m.Predict(k, 3); !ok || next != 4 {
			t.Fatalf("Predict(v%d, 3) = %d, %v; want 4, true", g, next, ok)
		}
	}
}
