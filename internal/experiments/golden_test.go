package experiments

import (
	"flag"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from this run")

const goldenPath = "testdata/tables.golden"

// renderGolden writes every table's ID, headers and count rows, one
// cell list per line. Timings are not part of it.
func renderGolden(tables []Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString("== " + t.ID + "\n")
		b.WriteString(strings.Join(t.Headers, " | ") + "\n")
		for _, row := range t.Rows {
			b.WriteString(strings.Join(row, " | ") + "\n")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTablesGolden diffs the count rows of every experiment table
// against testdata/tables.golden: a navigation, message, byte or hit
// count that moves is a behaviour change, whatever the shape tests say.
// A wall-clock row among the counts fails it too. Run with -update to
// accept a deliberate change.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tables take ~15s")
	}
	var tables []Table
	for _, id := range IDs() {
		tb := table(id)
		for _, row := range tb.Rows {
			if slices.ContainsFunc(row, func(c string) bool { return strings.Contains(c, "(ms)") }) {
				t.Fatalf("%s: wall-clock row %q belongs in Timings, not Rows", id, row)
			}
		}
		tables = append(tables, tb)
	}
	got := renderGolden(tables)
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
