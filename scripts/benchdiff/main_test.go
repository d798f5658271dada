package main

import (
	"strings"
	"testing"
)

func TestBenchdiff(t *testing.T) {
	const gate = "testdata/BENCHMARK.json"
	cases := []struct {
		name   string
		args   []string
		status int
		want   []string // substrings of the report
		absent []string
	}{
		{"within bounds",
			[]string{"-parent", "testdata/parent-*.json", "-change", "testdata/within-*.json"}, 0,
			[]string{
				"## warm-browse (3 parent / 3 change runs; failed sessions 0/300 -> 0/300)",
				"| cmds_per_s | 1/s | 1000 | 950 | -5.0% | 10 | 25% | ok |",
				"| alloc_bytes_per_cmd | B | 100 | 110 | +10.0% | 0 | 15% | ok |",
				"| core.nav_ns | 50 | 70 | +40.0% | lower |",
				"PASS"},
			// fills_per_cmd moved by 2 %: not listed.
			[]string{"buffer.fills_per_cmd", "WORSE"}},
		{"an end-to-end row past its bound",
			[]string{"-parent", "testdata/parent-*.json", "-change", "testdata/slower-1.json"}, 1,
			[]string{"| cmds_per_s | 1/s | 1000 | 700 | -30.0% | 10 | 25% | WORSE |", "FAIL"},
			nil},
		{"failed share rose",
			[]string{"-parent", "testdata/parent-*.json", "-change", "testdata/failing-1.json"}, 1,
			[]string{"failed sessions 0/300 -> 1/100", "FAILED SHARE ROSE", "INCORRECT: 1 change run(s)", "FAIL"},
			[]string{"WORSE"}},
		{"a -workload run's whole output",
			[]string{"-workload", "warm-browse", "-parent", "testdata/single-1.json", "-change", "testdata/single-1.json"}, 0,
			[]string{"## warm-browse (1 parent / 1 change runs", "| cmds_per_s | 1/s | 8.805e+05 | 8.805e+05 | +0.0% | 0 | 25% | ok |", "PASS"},
			// setup_s is not in the fixture's gate and did not move.
			[]string{"setup_s"}},
		{"a workload one side lacks",
			[]string{"-parent", "testdata/parent-*.json", "-change", "testdata/single-1.json"}, 1,
			[]string{"## run: 0 parent / 1 change runs; cannot compare", "FAIL"},
			nil},
		{"no files", []string{"-parent", "testdata/none-*.json", "-change", "testdata/within-*.json"}, 2, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errs strings.Builder
			status := run(append([]string{"-bench", gate}, tc.args...), &out, &errs)
			if status != tc.status {
				t.Fatalf("exit %d, want %d\n%s%s", status, tc.status, out.String(), errs.String())
			}
			for _, s := range tc.want {
				if !strings.Contains(out.String(), s) {
					t.Errorf("report lacks %q:\n%s", s, out.String())
				}
			}
			for _, s := range tc.absent {
				if strings.Contains(out.String(), s) {
					t.Errorf("report has %q:\n%s", s, out.String())
				}
			}
		})
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if m := median(v); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := iqr(v); q != 1.5 {
		t.Errorf("iqr = %v, want 1.5", q)
	}
	if d := delta(0, 1); pct(d) != "n/a" {
		t.Errorf("delta from 0 renders %q", pct(d))
	}
	if !worse("higher", -0.3, 0.25) || worse("higher", 0.3, 0.25) || !worse("lower", 0.3, 0.25) {
		t.Error("worse misreads the direction")
	}
}
