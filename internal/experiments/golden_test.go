package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

const goldenPath = "testdata/tables.golden"

// wallClock reports whether a row measures elapsed time: a metric named
// with an "(ms)" unit, and the ratio derived from it in the same row.
// These are E13's and E17's timing rows; they move between identical
// runs, so the golden leaves them out. Every other cell of E1–E19 is a
// count (or a ratio of counts) and stayed fixed over -count=5.
func wallClock(row []string) bool {
	for _, c := range row {
		if strings.Contains(c, "(ms)") {
			return true
		}
	}
	return false
}

// renderGolden writes every table's ID, headers and count rows, one
// cell list per line.
func renderGolden(tables []Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString("== " + t.ID + "\n")
		b.WriteString(strings.Join(t.Headers, " | ") + "\n")
		for _, row := range t.Rows {
			if wallClock(row) {
				continue
			}
			b.WriteString(strings.Join(row, " | ") + "\n")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTablesGolden regenerates every experiment table and diffs its
// counts against testdata/tables.golden: a navigation, message, byte or
// hit count that moves is a behaviour change, whatever the shape tests
// say. Run with -update to accept a deliberate change.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tables take ~15s")
	}
	got := renderGolden(All())
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/experiments -run TestTablesGolden -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i, bad := 0, 0; (i < len(gl) || i < len(wl)) && bad < 10; i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			bad++
			t.Errorf("%s line %d:\n got  %q\n want %q", goldenPath, i+1, g, w)
		}
	}
}
