package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mix/internal/lxp"
	"mix/internal/nav"
)

// memo runs each experiment at most once per test binary: the golden,
// the shape tests and the ablation counts all read the same tables.
var memo = func() map[string]func() Table {
	m := make(map[string]func() Table, len(registry))
	for id, fn := range registry {
		m[id] = sync.OnceValue(fn)
	}
	return m
}()

// table returns the memoized table of one experiment.
func table(id string) Table { return memo[id]() }

func TestIDsAndRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 16 {
		t.Fatalf("want 16 experiments, got %v", ids)
	}
	if ids[0] != "E1" || ids[15] != "E18" {
		t.Fatalf("order wrong: %v", ids)
	}
	if _, err := Run("E99"); err == nil {
		t.Fatal("unknown id must error")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{
		ID: "EX", Title: "title", Claim: "claim", Expect: "shape",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Timings: [][]string{{"t (ms)", "55555555555"}},
	}
	txt := tb.Format()
	for _, want := range []string{"EX — title", "claim", "shape", "long-header", "333"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Format missing %q:\n%s", want, txt)
		}
	}
	// Timings print after the count rows, aligned with them.
	if !strings.HasSuffix(txt, fmt.Sprintf("%6s  %11s\n%6s  %11s\n", "333", "4", "t (ms)", "55555555555")) {
		t.Errorf("Format: timing row missing or out of place:\n%s", txt)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | long-header |") || !strings.Contains(md, "### EX") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
	if !strings.HasSuffix(md, "| 333 | 4 |\n| t (ms) | 55555555555 |\n") {
		t.Errorf("Markdown: timing row missing or out of place:\n%s", md)
	}
}

// The shape assertions below read the memoized tables and verify the
// paper-predicted relationships hold (TestTablesGolden pins every count
// of every table).

func col(t *testing.T, tb Table, row, col int) int64 {
	t.Helper()
	v, err := strconv.ParseInt(tb.Rows[row][col], 10, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %v", tb.ID, row, col, err)
	}
	return v
}

func TestE4Shape(t *testing.T) {
	tb := table("E4")
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Fills fall monotonically with chunk size; tuple fetches constant.
	prev := int64(1 << 62)
	for i := range tb.Rows {
		fills := col(t, tb, i, 1)
		if fills >= prev {
			t.Fatalf("fills not decreasing: %v", tb.Rows)
		}
		prev = fills
		if got := col(t, tb, i, 4); got != 1000 {
			t.Fatalf("tuple fetches = %d, want 1000", got)
		}
	}
}

func TestE6Shape(t *testing.T) {
	tb := table("E6")
	for i := range tb.Rows {
		with, without := col(t, tb, i, 1), col(t, tb, i, 2)
		if without <= with {
			t.Fatalf("row %d: cache not beneficial: %v", i, tb.Rows[i])
		}
	}
	// The ratio grows with N (O(N·M) vs O(M)).
	first, last := col(t, tb, 0, 2)/col(t, tb, 0, 1), col(t, tb, len(tb.Rows)-1, 2)/col(t, tb, len(tb.Rows)-1, 1)
	if last <= first {
		t.Fatalf("ratio should grow: %d → %d", first, last)
	}
}

func TestE7Shape(t *testing.T) {
	tb := table("E7")
	for i := range tb.Rows {
		with, without := col(t, tb, i, 2), col(t, tb, i, 3)
		// One descent vs. one per outer binding (20): expect ≈ 20x.
		if without < 10*with {
			t.Fatalf("row %d: expected ≈20x contrast, got %d vs %d", i, with, without)
		}
	}
}

func TestE8Shape(t *testing.T) {
	tb := table("E8")
	for i := range tb.Rows {
		if tb.Rows[i][3] != "yes" {
			t.Fatalf("policy %q produced a different document", tb.Rows[i][0])
		}
	}
}

func TestE9Shape(t *testing.T) {
	tb := table("E9")
	for i := range tb.Rows {
		c1, c2 := col(t, tb, i, 1), col(t, tb, i, 2)
		u1, u2 := col(t, tb, i, 3), col(t, tb, i, 4)
		// Cached, the second walk only re-reads member labels.
		if 3*c2 > c1 {
			t.Fatalf("row %d: cached second walk not ≪ the first: %d vs %d", i, c2, c1)
		}
		// Uncached, nothing is kept: the second walk repeats the first,
		// and every group scan re-derives its input.
		if u2 != u1 || u1 < 5*c1 {
			t.Fatalf("row %d: uncached walks %d, %d vs cached %d", i, u1, u2, c1)
		}
	}
}

// TestPaperAblationCounts pins the navigation counts of the three paper
// ablations. They are deterministic: the numbers the persistent-stream
// operators this engine started from produced, less the children of
// matches no label can extend, which the pruned descent never reads.
// What turning a cache off re-derives is part of the reproduction, not
// an implementation detail.
func TestPaperAblationCounts(t *testing.T) {
	for _, tc := range []struct {
		table Table
		want  [][]string // the count columns, row by row
	}{
		{table("E6"), [][]string{
			{"20", "1404", "6002"}, {"50", "3192", "32690"}, {"100", "6802", "125800"}}},
		{table("E7"), [][]string{
			{"50", "20", "352", "7040"}, {"200", "20", "1402", "28040"}, {"800", "20", "5602", "112040"}}},
		{table("E9"), [][]string{
			{"30", "1670", "286", "16610", "16610"}, {"60", "3418", "654", "63898", "63898"},
			{"120", "6872", "1348", "250232", "250232"}}},
	} {
		if len(tc.table.Rows) != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d", tc.table.ID, len(tc.table.Rows), len(tc.want))
		}
		for i, want := range tc.want {
			if got := tc.table.Rows[i][:len(want)]; !slices.Equal(got, want) {
				t.Errorf("%s row %d: counts %v, want %v", tc.table.ID, i, got, want)
			}
		}
	}
}

func TestE10Shape(t *testing.T) {
	tb := table("E10")
	for i := range tb.Rows {
		sInit, sRewr := col(t, tb, i, 1), col(t, tb, i, 2)
		jInit, jRewr := col(t, tb, i, 3), col(t, tb, i, 4)
		if jRewr >= jInit {
			t.Fatalf("row %d: join evals not reduced: %v", i, tb.Rows[i])
		}
		_ = sInit
		// The rewritten σ runs once per outer binding, i.e. N times.
		n := col(t, tb, i, 0)
		if sRewr != n {
			t.Fatalf("row %d: rewritten σ evals = %d, want %d", i, sRewr, n)
		}
	}
}

// TestE11Shape pins both forms of the pull/push decoupling: think-time
// prefetch leaves phase 3 nothing to wait for, and the scan lookahead
// sends exactly the fills of a demand-only scan (E11 itself panics if
// the documents differ) while the client waits for about half of them.
func TestE11Shape(t *testing.T) {
	tb := table("E11")
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want the three phases and the two scans", len(tb.Rows))
	}
	if col(t, tb, 0, 2) != 0 || col(t, tb, 1, 3) != 0 || col(t, tb, 2, 1) != 0 {
		t.Fatalf("think-time prefetch: %v", tb.Rows[:3])
	}
	demandOnly, lookahead := tb.Rows[3], tb.Rows[4]
	// A scan needs at least the fills lxp.ChunkAt takes to cover the
	// catalog: the root fill carries the first chunk.
	floor := int64(0)
	for j := 0; j < e11Books; j += lxp.ChunkAt(e11Chunk, j) {
		floor++
	}
	total := col(t, tb, 3, 1)
	if col(t, tb, 3, 2) != 0 || total < floor {
		t.Fatalf("demand-only scan: %v, want at least %d fills", demandOnly, floor)
	}
	waited, ahead := col(t, tb, 4, 1), col(t, tb, 4, 2)
	if waited+ahead != total {
		t.Fatalf("lookahead scan sent %d fills, demand-only %d: overlap must not add fills", waited+ahead, total)
	}
	// Every lookahead follows a demand fill of the scan, and the root
	// fill, which carries the first chunk, precedes the first boundary.
	if ahead < total/2-2 || ahead > waited {
		t.Fatalf("lookahead scan waited for %d of %d fills: %v", waited, total, lookahead)
	}
	if col(t, tb, 3, 3) != 0 || col(t, tb, 4, 3) != 0 {
		t.Fatalf("scans left holes pending: %v %v", demandOnly, lookahead)
	}
}

func TestE13Shape(t *testing.T) {
	tb := table("E13")
	byMetric := map[string][]string{}
	for _, row := range tb.Rows {
		byMetric[row[0]+"/"+row[1]] = row
		if row[1] == "identical answer" && row[2] != "yes" {
			t.Fatalf("case %q produced a different answer: %v", row[0], row)
		}
	}
	if byMetric["batched fills/identical answer"] == nil {
		t.Fatalf("missing batched fills identity row: %v", tb.Rows)
	}
	// Batching must at least halve the round trips (the acceptance bar).
	// The wall-clock Timings are informational and not asserted.
	trips := byMetric["batched fills/LXP round trips"]
	if trips == nil {
		t.Fatalf("missing round-trip row: %v", tb.Rows)
	}
	t1, err := strconv.ParseInt(trips[2], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := strconv.ParseInt(trips[3], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if 2*t8 > t1 {
		t.Fatalf("batching below 2x: %d vs %d round trips", t1, t8)
	}
}

func TestE12Shape(t *testing.T) {
	tb := table("E12")
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if tb.Rows[i][5] != "identical" {
			t.Fatalf("row %d: answer not byte-identical: %v", i, tb.Rows[i])
		}
	}
	// Warm sessions (rows 2 and 3): zero source navigations and ≥5×
	// fewer total navigation commands than the cold session.
	coldTotal := col(t, tb, 0, 4)
	for _, i := range []int{1, 2} {
		if src := col(t, tb, i, 3); src != 0 {
			t.Fatalf("warm row %d: %d source navigations, want 0", i, src)
		}
		if total := col(t, tb, i, 4); coldTotal < 5*total {
			t.Fatalf("warm row %d: total %d not ≥5× under cold %d", i, total, coldTotal)
		}
	}
	// Cache off (row 4) and post-invalidation (row 5) pay cold-like
	// source costs again.
	for _, i := range []int{3, 4} {
		if src := col(t, tb, i, 3); src == 0 {
			t.Fatalf("row %d should re-derive at the sources: %v", i, tb.Rows[i])
		}
	}
	// Continuing past the warm results (row 6) costs the sources exactly
	// what the deriving session pays for the same further results: a
	// private session's cost for all of them less its cost for the
	// first ones.
	cold := func(k int) int64 {
		var srcs []*nav.CountingDoc
		e12Session(nil, k, &srcs)
		return sourceNavs(srcs)
	}
	want := cold(e12First+e12More) - cold(e12First)
	if src := col(t, tb, 5, 3); src != want || want == 0 {
		t.Fatalf("continuing past the warm prefix cost %d source navigations, the deriving session %d", src, want)
	}
}

func TestE15Shape(t *testing.T) {
	tb := table("E15")
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if tb.Rows[i][4] != "identical" {
			t.Fatalf("row %d: answer not byte-identical: %v", i, tb.Rows[i])
		}
	}
	// Cold sessions (rows 1 and 3) pay the same source cost whether
	// standalone or clustered; every warm session pays zero.
	if a, b := col(t, tb, 0, 2), col(t, tb, 2, 2); a != b || a == 0 {
		t.Fatalf("cold source navs: standalone %d vs clustered %d, want equal and nonzero", a, b)
	}
	for _, i := range []int{1, 3, 4} {
		if src := col(t, tb, i, 2); src != 0 {
			t.Fatalf("warm row %d: %d source navigations, want 0", i, src)
		}
	}
	// The cross-node warm session must have filled over the wire.
	if l2 := col(t, tb, 3, 3); l2 == 0 {
		t.Fatal("warm cross-node session recorded no L2 hits")
	}
}

func TestE18Shape(t *testing.T) {
	tb := table("E18")
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		if tb.Rows[i][4] != "identical" {
			t.Fatalf("row %d: answer not byte-identical to its oracle: %v", i, tb.Rows[i])
		}
	}
	// Cold superset rows (1 and 4) pay real source navigations.
	for _, i := range []int{0, 3} {
		if src := col(t, tb, i, 1); src == 0 {
			t.Fatalf("cold row %d touched no sources: %v", i, tb.Rows[i])
		}
	}
	// The warm subsumed rows (2 and 5): zero source navigations, exactly
	// one semantic hit; the fleet row also short-circuits routing.
	for _, i := range []int{1, 4} {
		if src := col(t, tb, i, 1); src != 0 {
			t.Fatalf("semantic row %d: %d source navigations, want 0", i, src)
		}
		if hits := col(t, tb, i, 2); hits != 1 {
			t.Fatalf("semantic row %d: %d semantic hits, want 1", i, hits)
		}
	}
	if local := col(t, tb, 4, 3); local != 1 {
		t.Fatalf("fleet subsumed open: semantic local = %d, want 1", local)
	}
	// On a fresh node with no superset cached, the subsumed open pays
	// the sources and records no semantic hit.
	if src := col(t, tb, 2, 1); src == 0 {
		t.Fatal("cold subsumed open touched no source with no superset cached")
	}
	if hits := col(t, tb, 2, 2); hits != 0 {
		t.Fatalf("cold subsumed open recorded %d semantic hits", hits)
	}
}

func TestE16Shape(t *testing.T) {
	tb := table("E16")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Tracing is free in navigation terms: identical client commands and
	// identical fleet-wide source navigations either way.
	if off, on := col(t, tb, 0, 1), col(t, tb, 1, 1); off != on {
		t.Fatalf("client cmds differ: off=%d on=%d", off, on)
	}
	if off, on := col(t, tb, 0, 2), col(t, tb, 1, 2); off != on {
		t.Fatalf("source navs differ: off=%d on=%d", off, on)
	}
	// Only the traced session yields spans — one stitched forest that
	// covers both the entry and owner nodes and attributes every source
	// navigation.
	if got := col(t, tb, 0, 3); got != 0 {
		t.Fatalf("untraced session recorded %d spans", got)
	}
	if spans, srcSpans := col(t, tb, 1, 3), col(t, tb, 1, 4); spans == 0 || srcSpans == 0 {
		t.Fatalf("traced session: spans=%d src spans=%d", spans, srcSpans)
	}
	if srcSpans, navs := col(t, tb, 1, 4), col(t, tb, 1, 2); srcSpans != navs {
		t.Fatalf("src spans = %d, counted source navs = %d", srcSpans, navs)
	}
	if nodes := col(t, tb, 1, 5); nodes < 2 {
		t.Fatalf("stitched forest covers %d nodes, want >= 2", nodes)
	}
}
