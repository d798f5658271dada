package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// selfcheckRuns is the size of each of the two interleaved sets.
const selfcheckRuns = 5

// oneRun re-executes this binary for one end-to-end run in a fresh
// process — the way the benchmark's driver runs it — and parses the
// result object from the last line of its output.
func oneRun(workload string, seed int64, seconds int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: %d of %d sessions failed", workload, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// spread is the distance between the quartiles as a share of the
// median — the contract's steadiness statistic.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// runSelfcheck runs every workload as two interleaved sets of
// selfcheckRuns runs (A B A B …), each run with another seed, and
// prints per workload × end-to-end metric the two set medians, how much
// worse B is than A, each set's spread, the spread of all runs
// together, and the bound. It reports false if any set differs from the
// other by more than the bound or any spread exceeds half the bound
// (setup_s is exempt from the spread rule, as in the contract).
func runSelfcheck(seed int64, seconds int) bool {
	fmt.Printf("# bench -selfcheck: nproc=%d GOMAXPROCS=%d %s %s/%s, seeds %d..%d, -seconds %d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		seed, seed+2*selfcheckRuns-1, seconds)
	fmt.Printf("# %-15s %-20s %12s %12s %8s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "iqr all", "bound")
	ok := true
	for i := range specs {
		sp := &specs[i]
		sets := [2]map[string][]float64{{}, {}}
		for run := 0; run < 2*selfcheckRuns; run++ {
			res, err := oneRun(sp.name, seed+int64(run), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
				return false
			}
			for name, v := range res.Metrics {
				sets[run%2][name] = append(sets[run%2][name], v.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			worse := ratio(median(b)-median(a), median(a))
			if d.better == "higher" {
				worse = -worse
			}
			all := append(append([]float64(nil), a...), b...)
			verdict := ""
			if worse > d.bound || -worse > d.bound {
				verdict = " DIFFERS"
				ok = false
			}
			if d.name != "setup_s" && (spread(a) > d.bound/2 || spread(b) > d.bound/2 || spread(all) > d.bound/2) {
				verdict += " NOISY"
				ok = false
			}
			fmt.Printf("  %-15s %-20s %12.6g %12.6g %+7.2f%% %7.2f%% %7.2f%% %7.2f%% %5.0f%%%s\n",
				sp.name, d.name, median(a), median(b), 100*worse, 100*spread(a), 100*spread(b), 100*spread(all), 100*d.bound, verdict)
		}
	}
	if ok {
		fmt.Println("# selfcheck passed: every set difference within its bound, every spread within half its bound")
	} else {
		fmt.Println("# selfcheck FAILED")
	}
	return ok
}
