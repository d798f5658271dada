package experiments

import (
	"fmt"
	"time"

	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// delayServer simulates a remote wrapper: every LXP round trip —
// get_root, fill, or fill_many — costs one fixed network delay,
// whatever it carries. It is the cost model under which batched fills
// are measured: batching amortizes the delay over many holes.
type delayServer struct {
	inner lxp.Server
	delay time.Duration
}

func (d *delayServer) GetRoot(uri string) (string, error) {
	time.Sleep(d.delay)
	return d.inner.GetRoot(uri)
}

func (d *delayServer) Fill(holeID string) ([]*xmltree.Tree, error) {
	time.Sleep(d.delay)
	return d.inner.Fill(holeID)
}

func (d *delayServer) FillMany(holeIDs []string) (map[string][]*xmltree.Tree, error) {
	time.Sleep(d.delay)
	return lxp.FillMany(d.inner, holeIDs)
}

// E13BatchedFills measures batched LXP fills against the same lazy
// semantics they must preserve: round trips, not fills, carry the
// latency, so coalescing the holes the client has discovered into one
// fill_many cuts the round trips a cold drain pays.
//
// The case reports a baseline/optimized pair plus an identity row: the
// batched buffer must produce the identical answer document. The
// round-trip row is deterministic; the wall-clock reading depends on
// the simulated delay and on scheduling, so it goes to Timings.
func E13BatchedFills() Table {
	t := Table{
		ID:    "E13",
		Title: "Batched LXP fills",
		Claim: "Batched fills cut round trips and wall-clock latency without " +
			"changing a single byte of the answer.",
		Expect:  "≥2× fewer LXP round trips with batching; the identity row says yes.",
		Headers: []string{"case", "metric", "baseline", "optimized", "improvement"},
	}
	rows, timing := batchedFillRows()
	t.Rows = append(t.Rows, rows...)
	t.Timings = append(t.Timings, timing)
	return t
}

// ratio renders how many times smaller optimized is than baseline.
func ratio(baseline, optimized float64) string {
	if optimized <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", baseline/optimized)
}

// drainPrefetch resolves the root (the prefetcher only fills holes the
// client has discovered), starts the asynchronous prefetcher, waits
// until it has filled every hole, and returns how long the drain took.
func drainPrefetch(b *buffer.Buffer) time.Duration {
	start := time.Now()
	if _, err := b.Root(); err != nil {
		panic(err)
	}
	b.StartPrefetch()
	deadline := time.Now().Add(60 * time.Second)
	for b.Stats().PendingHoles > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	b.StopPrefetch()
	return time.Since(start)
}

// batchedFillRows drains a cold 150-book catalog (chunked fills, holes
// per book) through a 1ms-per-round-trip wrapper, with single-hole
// fills vs. fill_many batches of 8. It returns the count rows and the
// drain's wall-clock row.
func batchedFillRows() (rows [][]string, timing []string) {
	catalog := workload.Books("az", 150, 7)
	want, err := nav.Materialize(nav.NewTreeDoc(catalog))
	if err != nil {
		panic(err)
	}
	run := func(batch int) (trips int, elapsed time.Duration, identical bool) {
		srv := &delayServer{
			inner: &lxp.TreeServer{Tree: catalog, Chunk: 10, InlineLimit: 4},
			delay: time.Millisecond,
		}
		b, err := buffer.New(srv, "u")
		if err != nil {
			panic(err)
		}
		b.Batch = batch
		elapsed = drainPrefetch(b)
		got, err := nav.Materialize(b)
		if err != nil {
			panic(err)
		}
		return b.Stats().RoundTrips, elapsed, xmltree.Equal(got, want)
	}
	t1, d1, ok1 := run(1)
	t8, d8, ok8 := run(8)
	same := "yes"
	if !ok1 || !ok8 {
		same = "NO"
	}
	rows = [][]string{
		{"batched fills", "LXP round trips", itoa(int64(t1)), itoa(int64(t8)),
			ratio(float64(t1), float64(t8))},
		{"batched fills", "identical answer", same, same, "="},
	}
	timing = []string{"batched fills", "cold drain wall-clock (ms)",
		itoa(d1.Milliseconds()), itoa(d8.Milliseconds()),
		ratio(float64(d1), float64(d8))}
	return rows, timing
}
