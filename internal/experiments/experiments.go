// Package experiments implements the measured experiment suite of
// EXPERIMENTS.md: one function per experiment id (E1–E19), each
// regenerating a table that tests one of the paper's claims. The paper
// itself contains no numeric evaluation — its claims are architectural
// and complexity-theoretic — so each experiment turns a claim into a
// measured table whose *shape* (who wins, growth rates, crossovers) is
// compared against the paper's prediction.
//
// Every count is deterministic: workloads are seeded and the measured
// quantities are navigation/message/byte counters, pinned by
// testdata/tables.golden. The few wall-clock readings (E13, E17) are
// kept apart in Table.Timings; the project's timing numbers live in
// bench/.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Table is one experiment's regenerated result.
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title is a short description.
	Title string
	// Claim is the paper claim under test, with its anchor.
	Claim string
	// Expect is the predicted shape of the results.
	Expect string
	// Headers and Rows are the measured table: counts and ratios of
	// counts, the same on every run.
	Headers []string
	Rows    [][]string
	// Timings are wall-clock rows under the same headers. They move
	// between identical runs, so the golden leaves them out; Format and
	// Markdown print them after the count rows.
	Timings [][]string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim:  %s\n", t.Claim)
	fmt.Fprintf(&b, "expect: %s\n\n", t.Expect)

	rows := slices.Concat(t.Rows, t.Timings)
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Claim:* %s\n\n*Expected shape:* %s\n\n", t.Claim, t.Expect)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Headers)) + "\n")
	for _, row := range slices.Concat(t.Rows, t.Timings) {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// registry maps experiment ids to their runners.
var registry = map[string]func() Table{
	"E1":  E1Browsability,
	"E2":  E2LazyVsEager,
	"E3":  E3SelectCommand,
	"E4":  E4Granularity,
	"E5":  E5PartialExploration,
	"E6":  E6JoinCache,
	"E7":  E7RecursiveCache,
	"E8":  E8LiberalLXP,
	"E9":  E9GroupByCache,
	"E10": E10Rewriting,
	"E11": E11AsyncPrefetch,
	"E12": E12RegionCache,
	"E13": E13BatchedFills,
	"E15": E15ClusterL2,
	"E16": E16FleetTracing,
	"E17": E17BatchPipeline,
	"E18": E18SemanticCache,
	"E19": E19SpeculativePrefetch,
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}

// Run runs one experiment by id.
func Run(id string) (Table, error) {
	fn, ok := registry[id]
	if !ok {
		return Table{}, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return fn(), nil
}

func itoa(n int64) string { return fmt.Sprintf("%d", n) }
