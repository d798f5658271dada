package experiments

import (
	"fmt"
	"time"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/core"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// delayServer simulates a remote wrapper: every LXP round trip —
// get_root, fill, or fill_many — costs one fixed network delay,
// whatever it carries. It is the cost model under which the parallel
// navigation pipeline is measured: batching amortizes the delay over
// many holes, parallel derivation overlaps the delays of independent
// sources.
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

// E13ParallelPipeline measures two optimizations of the parallel
// navigation pipeline against the same lazy semantics they must
// preserve: batched fills (round trips, not fills, carry the latency)
// and concurrent input derivation for joins over disjoint sources (the
// two drains overlap instead of adding up).
//
// Every case reports a baseline/optimized pair plus an identity row:
// the optimized pipeline must produce the identical answer document.
// Round-trip rows are deterministic; the wall-clock readings depend on
// the simulated delay and on scheduling, so they go to Timings.
func E13ParallelPipeline() Table {
	t := Table{
		ID:    "E13",
		Title: "Parallel navigation pipeline (batching, parallel derivation)",
		Claim: "Batched fills and concurrent input derivation cut round trips " +
			"and wall-clock latency without changing a single byte of the answer.",
		Expect: "≥2× fewer LXP round trips with batching; the parallel drain of two " +
			"delayed sources runs in ≈max instead of ≈sum of their latencies; every " +
			"identity row says yes.",
		Headers: []string{"case", "metric", "baseline", "optimized", "improvement"},
	}
	rows, timing := batchedFillRows()
	t.Rows = append(t.Rows, rows...)
	t.Timings = append(t.Timings, timing)
	rows, timing = parallelDeriveRows()
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
	for b.PendingHoles() > 0 && time.Now().Before(deadline) {
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
		return b.RoundTrips(), elapsed, xmltree.Equal(got, want)
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

// zipJoinPlan is the Fig. 4 equi-join shape over homes and schools with
// a countable join condition: H ⋈ S on zip equality, projected to the
// pair. jn, when non-nil, counts condition evaluations.
func zipJoinPlan(jn *int64) algebra.Op {
	left := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "homesSrc", Var: "r1"},
		Parent: "r1", Path: mustPath("home"), Out: "H",
	}
	leftZip := &algebra.GetDescendants{Input: left, Parent: "H",
		Path: mustPath("zip._"), Out: "V1"}
	right := &algebra.GetDescendants{
		Input:  &algebra.Source{URL: "schoolsSrc", Var: "r2"},
		Parent: "r2", Path: mustPath("school"), Out: "S",
	}
	rightZip := &algebra.GetDescendants{Input: right, Parent: "S",
		Path: mustPath("zip._"), Out: "V2"}
	var cond algebra.Cond = algebra.Eq(algebra.V("V1"), algebra.V("V2"))
	if jn != nil {
		cond = &countingCond{inner: cond, n: jn}
	}
	return &algebra.Project{
		Input: &algebra.Join{Left: leftZip, Right: rightZip, Cond: cond},
		Keep:  []string{"H", "S"},
	}
}

// parallelDeriveRows joins two LXP-buffered sources behind
// 5ms-per-round-trip wrappers: serially the two input drains add up,
// with Options.Parallel they overlap. It returns the identity row and
// the drain's wall-clock row.
func parallelDeriveRows() (rows [][]string, timing []string) {
	homes, schools := workload.HomesSchools(50, 50, 12, 11)
	run := func(opts core.Options) (elapsed time.Duration, got *xmltree.Tree) {
		e := core.New(opts)
		for name, tree := range map[string]*xmltree.Tree{"homesSrc": homes, "schoolsSrc": schools} {
			srv := &delayServer{
				inner: &lxp.TreeServer{Tree: tree, Chunk: 5, InlineLimit: 64},
				delay: 5 * time.Millisecond,
			}
			b, err := buffer.New(srv, name)
			if err != nil {
				panic(err)
			}
			e.Register(name, b)
		}
		q, err := e.Compile(zipJoinPlan(nil))
		if err != nil {
			panic(err)
		}
		start := time.Now()
		got, err = q.Materialize()
		if err != nil {
			panic(err)
		}
		return time.Since(start), got
	}
	serial := core.Options{JoinCache: true, PathCache: true, GroupCache: true}
	parallel := serial
	parallel.Parallel = true
	d0, g0 := run(serial)
	d1, g1 := run(parallel)
	same := "yes"
	if !xmltree.Equal(g0, g1) {
		same = "NO"
	}
	rows = [][]string{
		{"parallel derivation", "identical answer", same, same, "="},
	}
	timing = []string{"parallel derivation", "input-drain wall-clock (ms)",
		itoa(d0.Milliseconds()), itoa(d1.Milliseconds()),
		ratio(float64(d0), float64(d1))}
	return rows, timing
}
