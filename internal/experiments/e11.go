package experiments

import (
	"time"

	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// E11AsyncPrefetch measures the asynchronous prefetching extension
// Section 4 proposes: "a buffer can be used to decouple the
// client-driven view navigation (pull from above) and the production of
// results by the wrapped source (push from below) based on an
// asynchronous prefetching strategy."
//
// The client explores the first k results on demand, then idles (think
// time) while the prefetcher drains the remaining holes; when the
// client returns and reads the rest of the document, no fill has to be
// awaited on the navigation path.
//
// Rows 4 and 5 are the other form of the same decoupling, for a client
// that does not pause: one uninterrupted scan of the whole catalog over
// a fresh buffer, demand-only and then with the one-chunk scan
// lookahead (buffer.EnableLookahead, what mediator.RegisterLXP turns
// on). The lookahead sends the same fills, but every second chunk
// travels while the client reads the chunk before it.
// E11's catalog size and the first-fill size of its wrapper.
const e11Books, e11Chunk = 300, 5

func E11AsyncPrefetch() Table {
	t := Table{
		ID:    "E11",
		Title: "Asynchronous prefetching (Section 4, extension)",
		Claim: "Decoupling pull-from-above and push-from-below lets the wrapper fill " +
			"previously left-open holes during client think time, so later " +
			"navigations find their data already buffered.",
		Expect: "phase 3 (read the rest) issues zero demand fills once prefetch has drained the holes; " +
			"a cold scan with the scan lookahead waits for about half the fills of a demand-only scan, " +
			"sends the same number in total and reads the identical document.",
		Headers: []string{"phase", "demand fills", "prefetch fills", "pending holes after"},
	}
	catalog := workload.Books("az", e11Books, 5)
	b, err := buffer.New(&lxp.TreeServer{Tree: catalog, Chunk: e11Chunk, InlineLimit: 32}, "u")
	if err != nil {
		panic(err)
	}

	// Phase 1: the user reads the first 5 books on demand.
	if _, err := nav.ExploreFirst(b, 5); err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, e11Row("1: demand-read first 5", b.Stats(), 0))

	// Phase 2: think time — the prefetcher drains the source.
	b.StartPrefetch()
	deadline := time.Now().Add(30 * time.Second)
	for b.Stats().PendingHoles > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.StopPrefetch()
	t.Rows = append(t.Rows, e11Row("2: think time (prefetch)", b.Stats(), 0))

	// Phase 3: the user reads everything else.
	demandBefore := b.Stats().DemandFills
	if _, err := nav.Materialize(b); err != nil {
		panic(err)
	}
	t.Rows = append(t.Rows, e11Row("3: read the rest", b.Stats(), demandBefore))

	// Rows 4–5: a cold scan without think time.
	var scans [2]*buffer.Buffer
	for i, label := range []string{"4: cold full scan, demand only", "5: cold full scan, scan lookahead"} {
		sb, err := buffer.New(&lxp.TreeServer{Tree: catalog, Chunk: e11Chunk, InlineLimit: 32}, "u")
		if err != nil {
			panic(err)
		}
		if i == 1 {
			sb.EnableLookahead()
		}
		got, err := nav.Materialize(sb)
		if err != nil {
			panic(err)
		}
		if !xmltree.Equal(got, catalog) {
			panic("E11: " + label + ": scan read a different document")
		}
		scans[i] = sb
		t.Rows = append(t.Rows, e11Row(label, sb.Stats(), 0))
	}
	if !xmltree.Equal(scans[0].Snapshot(), scans[1].Snapshot()) {
		panic("E11: lookahead scan buffered a different document")
	}
	return t
}

// e11Row renders one phase: the demand fills since demandBefore, the
// prefetch fills so far and the holes still pending.
func e11Row(phase string, st buffer.Stats, demandBefore int) []string {
	return []string{phase, itoa(int64(st.DemandFills - demandBefore)),
		itoa(int64(st.PrefetchFills)), itoa(int64(st.PendingHoles))}
}
