package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestStatsHelpers(t *testing.T) {
	if got := median([]float64{5, 1, 4}); got != 4 {
		t.Errorf("median odd = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 95: 10, 90: 9, 10: 1, 100: 10} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
}

func TestQuotasAreExact(t *testing.T) {
	got := quotas(10, []float64{0.5, 0.3, 0.2})
	if got[0] != 5 || got[1] != 3 || got[2] != 2 {
		t.Errorf("quotas(10) = %v", got)
	}
	for _, n := range []int{1, 7, 110, 719} {
		sum := 0
		for _, q := range quotas(n, zipf(8)) {
			sum += q
		}
		if sum != n {
			t.Errorf("quotas(%d) sum to %d", n, sum)
		}
	}
}

// Same seed ⇒ same session list and same command count; another seed ⇒
// another list with the same composition.
func TestSessionListsAreDeterministic(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := sp.sessionList(1, sp.sessions), sp.sessionList(1, sp.sessions), sp.sessionList(2, sp.sessions)
		if listHash(a) != listHash(b) {
			t.Errorf("%s: seed 1 gave two different lists", sp.name)
		}
		if listHash(a) == listHash(c) {
			t.Errorf("%s: seeds 1 and 2 gave the same list", sp.name)
		}
		if len(a) != sp.sessions || len(c) != sp.sessions {
			t.Errorf("%s: list has %d sessions, want %d", sp.name, len(a), sp.sessions)
		}
		cells := func(list []session) map[[2]int]int {
			m := map[[2]int]int{}
			for _, s := range list {
				m[[2]int{s.family, s.persona}]++
			}
			return m
		}
		ca, cc := cells(a), cells(c)
		for k, n := range ca {
			if cc[k] != n {
				t.Errorf("%s: cell %v has %d sessions under seed 1, %d under seed 2", sp.name, k, n, cc[k])
			}
		}

		src, err := buildSources(sp, false)
		if err != nil {
			t.Fatal(err)
		}
		count := func() int {
			want, err := computeOracle(sp, src, a)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, s := range a {
				n += want[s.key()].cmds
			}
			return n
		}
		if x, y := count(), count(); x != y || x == 0 {
			t.Errorf("%s: command counts %d and %d for the same list", sp.name, x, y)
		}
		src.stop()
	}
}

// A tiny round per topology boots, replays, oracle-checks and shuts
// down without leaving a goroutine behind.
func TestSmokeRoundsLeaveNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, name := range []string{"warm-browse", "remote-sources", "fleet-mixed"} {
		sp := specByName(name)
		g, err := setup(sp, 1, smokeSessions, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rr := g.runner.round(false)
		if rr.failed != 0 || len(rr.errs) != 0 {
			t.Errorf("%s: %d sessions failed: %v", name, rr.failed, rr.errs)
		}
		if cmds, _ := g.runner.perRound(); rr.cmds != cmds {
			t.Errorf("%s: round issued %d commands, list holds %d", name, rr.cmds, cmds)
		}
		if err := g.teardown(); err != nil {
			t.Errorf("%s: teardown: %v", name, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// A session whose explored part differs from the oracle is a failed
// operation.
func TestOracleMismatchFailsTheSession(t *testing.T) {
	sp := specByName("warm-browse")
	g, err := setup(sp, 1, smokeSessions, false)
	if err != nil {
		t.Fatal(err)
	}
	defer g.teardown()
	k := g.runner.list[0].key()
	e := g.runner.want[k]
	e.hash++
	g.runner.want[k] = e
	rr := g.runner.round(false)
	if rr.failed == 0 || len(rr.errs) == 0 {
		t.Error("a wrong oracle hash did not fail any session")
	}
}

// BENCHMARK.json and README.md must agree with the catalogue in
// metrics.go and the workloads in workloads.go.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(file.Workloads), len(specs))
	}
	for i, w := range file.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q, want %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range file.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v, want %+v", i, m, d)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(file.PerLayer), len(perLayer))
	}
	for i, m := range file.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v, want %+v", i, m, d)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(string(readme), "`"+d.name+"`") {
			t.Errorf("README.md does not mention %s", d.name)
		}
	}
}
