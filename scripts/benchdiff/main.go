// Command benchdiff compares benchmark runs of a parent commit and of a
// change against the gate BENCHMARK.json declares.
//
//	go run ./scripts/benchdiff -parent 'runs/parent-*.json' -change 'runs/change-*.json'
//	go run ./scripts/benchdiff -workload warm-browse -parent 'p*.json' -change 'c*.json'
//
// Each file holds one run's result line, the JSON object `bash
// bench/run.sh` prints last (a file holding a run's whole output works
// too: the last line starting with '{' is read). The object of a
// `-workload W` run is filed under the -workload flag; a run of every
// workload maps each workload, and W#layers, to its object.
//
// For each workload it prints, per end-to-end row, the parent and change
// medians, the delta, the parent's interquartile range and whether the
// row is worse than its bound; then the other rows whose median moved by
// more than 10 %. It exits 1 when an end-to-end row is worse than its
// bound, when the share of failed sessions rose or a change run's oracle
// was incorrect, and 2 on unreadable input.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// layerMove is the relative move past which a row outside the gate is
// listed.
const layerMove = 0.10

// gate is the part of BENCHMARK.json benchdiff reads.
type gate struct {
	EndToEnd []row `json:"end_to_end"`
	PerLayer []row `json:"per_layer"`
}

type row struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end rows: the tolerated relative loss
}

// result is one workload's object in a run's result line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// side is one commit's runs: per workload, its results in file order.
type side map[string][]result

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark declaration")
	parentGlob := fs.String("parent", "", "glob of the parent commit's result files")
	changeGlob := fs.String("change", "", "glob of the change's result files")
	workload := fs.String("workload", "run", "workload name for results of a -workload run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	g, err := readGate(*benchPath)
	if err == nil && (*parentGlob == "" || *changeGlob == "") {
		err = errors.New("both -parent and -change are required")
	}
	var parent, change side
	if err == nil {
		parent, err = load(*parentGlob, *workload)
	}
	if err == nil {
		change, err = load(*changeGlob, *workload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if !compare(stdout, g, parent, change) {
		return 1
	}
	return 0
}

func readGate(path string) (gate, error) {
	var g gate
	b, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(b, &g); err != nil {
		return g, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// load reads every file pattern matches into one side.
func load(pattern, workload string) (side, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	s := side{}
	for _, f := range files {
		objs, err := readResults(f, workload)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for w, r := range objs {
			s[w] = append(s[w], r)
		}
	}
	return s, nil
}

// readResults parses a file's result line into results by workload.
func readResults(path, workload string) (map[string]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var line []byte
	for _, l := range bytes.Split(b, []byte("\n")) {
		if l = bytes.TrimSpace(l); len(l) > 0 && l[0] == '{' {
			line = l
		}
	}
	if line == nil {
		return nil, errors.New("no result line")
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		return nil, err
	}
	var objs map[string]result
	if _, single := top["metrics"]; single {
		var r result
		err = json.Unmarshal(line, &r)
		objs = map[string]result{workload: r}
	} else {
		err = json.Unmarshal(line, &objs)
	}
	return objs, err
}

// compare writes the report and reports whether the change passes.
func compare(w io.Writer, g gate, parent, change side) bool {
	pass := true
	gated := map[string]row{}
	for _, r := range g.EndToEnd {
		gated[r.Name] = r
	}
	better := map[string]string{}
	for _, r := range g.PerLayer {
		better[r.Name] = r.Better
	}
	var names []string
	for n := range parent {
		names = append(names, n)
	}
	for n := range change {
		if _, ok := parent[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		p, c := parent[name], change[name]
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "## %s: %d parent / %d change runs; cannot compare\n\n", name, len(p), len(c))
			pass = false
			continue
		}
		pf, pa := failures(p)
		cf, ca := failures(c)
		fmt.Fprintf(w, "## %s (%d parent / %d change runs; failed sessions %d/%d -> %d/%d)\n\n",
			name, len(p), len(c), pf, pa, cf, ca)
		if share(cf, ca) > share(pf, pa) {
			fmt.Fprintf(w, "FAILED SHARE ROSE\n\n")
			pass = false
		}
		if n := incorrect(c); n > 0 {
			fmt.Fprintf(w, "INCORRECT: %d change run(s) failed the oracle\n\n", n)
			pass = false
		}
		var gatedRows, moved []string
		for _, m := range metricNames(p, c) {
			pm, cm := median(values(p, m)), median(values(c, m))
			d := delta(pm, cm)
			if r, ok := gated[m]; ok {
				verdict := "ok"
				if worse(r.Better, d, r.Bound) {
					verdict, pass = "WORSE", false
				}
				gatedRows = append(gatedRows, fmt.Sprintf("| %s | %s | %.4g | %.4g | %s | %.4g | %.0f%% | %s |",
					m, r.Unit, pm, cm, pct(d), iqr(values(p, m)), 100*r.Bound, verdict))
			} else if math.Abs(d) > layerMove {
				moved = append(moved, fmt.Sprintf("| %s | %.4g | %.4g | %s | %s |", m, pm, cm, pct(d), better[m]))
			}
		}
		if len(gatedRows) > 0 {
			fmt.Fprintln(w, "| metric | unit | parent | change | delta | parent IQR | bound | verdict |")
			fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
			fmt.Fprintf(w, "%s\n\n", strings.Join(gatedRows, "\n"))
		}
		if len(moved) > 0 {
			fmt.Fprintf(w, "Rows outside the gate that moved by more than %.0f%%:\n\n", 100*layerMove)
			fmt.Fprintln(w, "| metric | parent | change | delta | better |")
			fmt.Fprintln(w, "|---|---|---|---|---|")
			fmt.Fprintf(w, "%s\n\n", strings.Join(moved, "\n"))
		}
	}
	if pass {
		fmt.Fprintln(w, "PASS")
	} else {
		fmt.Fprintln(w, "FAIL")
	}
	return pass
}

func failures(rs []result) (failed, attempted int) {
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func incorrect(rs []result) int {
	n := 0
	for _, r := range rs {
		if !r.Correct {
			n++
		}
	}
	return n
}

// metricNames lists, sorted, the metrics every run of both sides has.
func metricNames(p, c []result) []string {
	var names []string
	for m := range p[0].Metrics {
		if everyRunHas(p, m) && everyRunHas(c, m) {
			names = append(names, m)
		}
	}
	sort.Strings(names)
	return names
}

func everyRunHas(rs []result, m string) bool {
	for _, r := range rs {
		if _, ok := r.Metrics[m]; !ok {
			return false
		}
	}
	return true
}

// values returns metric m of every run, sorted.
func values(rs []result, m string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[m].Value
	}
	sort.Float64s(v)
	return v
}

// quantile interpolates linearly between the order statistics of the
// sorted v.
func quantile(v []float64, q float64) float64 {
	x := q * float64(len(v)-1)
	i := int(x)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (x-float64(i))*(v[i+1]-v[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func iqr(v []float64) float64 { return quantile(v, 0.75) - quantile(v, 0.25) }

// delta is the change median's relative difference from the parent's.
func delta(parent, change float64) float64 {
	switch {
	case parent == change:
		return 0
	case parent == 0:
		return math.Inf(int(math.Copysign(1, change)))
	}
	return (change - parent) / math.Abs(parent)
}

// worse reports whether a relative move d is a loss beyond bound.
func worse(better string, d, bound float64) bool {
	if better == "higher" {
		d = -d
	}
	return d > bound
}

func pct(d float64) string {
	if math.IsInf(d, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*d)
}
