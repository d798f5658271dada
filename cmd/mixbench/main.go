// Command mixbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per paper claim (E1–E10). With no flags it runs everything;
// -e selects one experiment, -md emits markdown for EXPERIMENTS.md, and
// -json writes machine-readable results (the measured tables plus
// per-experiment wall-clock ns) to a file for tracking runs over time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mix/internal/experiments"
	"mix/internal/telemetry"
)

// jsonResult is one experiment in the -json output: the measured table
// (rows hold the navigation/message/byte counts) plus how long the
// whole experiment took to run.
type jsonResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim"`
	Expect  string     `json:"expect"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	NsOp    int64      `json:"ns_per_op"`
	// Memory accounting for the experiment, present with -mem: heap
	// bytes/objects allocated while it ran and the GC pause time it
	// induced (runtime/metrics deltas, whole process).
	AllocBytes   uint64  `json:"alloc_bytes,omitempty"`
	AllocObjects uint64  `json:"alloc_objects,omitempty"`
	GCPauseNs    float64 `json:"gc_pause_ns,omitempty"`
}

func main() {
	id := flag.String("e", "", "run a single experiment (E1…E10)")
	md := flag.Bool("md", false, "emit markdown instead of aligned text")
	mem := flag.Bool("mem", false, "report per-experiment allocation and GC-pause deltas")
	clusterOnly := flag.Bool("cluster", false, "run only the clustered fleet experiments (E15, E16)")
	semanticOnly := flag.Bool("semantic", false, "run only the semantic region cache experiment (E18)")
	persona := flag.String("persona", "", "run only the speculative prefetch experiment (E19) under this client persona (deep-drill, glance, select-heavy)")
	jsonOut := flag.String("json", "", "also write machine-readable results to this file")
	batch := flag.Int("batch", 0, "override the pipeline width of the vectorized runs (0 = default, 1 = one binding per pull)")
	flag.Parse()

	if *batch != 0 {
		experiments.SetBatchSize(*batch)
	}

	ids := experiments.IDs()
	if *clusterOnly {
		ids = []string{"E15", "E16"}
	}
	if *semanticOnly {
		ids = []string{"E18"}
	}
	if *persona != "" {
		experiments.SetPersona(*persona)
		ids = []string{"E19"}
	}
	if *id != "" {
		ids = []string{*id}
	}
	tables := make([]experiments.Table, 0, len(ids))
	results := make([]jsonResult, 0, len(ids))
	for _, eid := range ids {
		var before telemetry.MemStats
		if *mem {
			before = telemetry.ReadMemStats()
		}
		start := time.Now()
		t, err := experiments.Run(eid)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := jsonResult{
			ID: t.ID, Title: t.Title, Claim: t.Claim, Expect: t.Expect,
			Headers: t.Headers, Rows: t.Rows, NsOp: time.Since(start).Nanoseconds(),
		}
		if *mem {
			d := telemetry.ReadMemStats().Sub(before)
			r.AllocBytes, r.AllocObjects, r.GCPauseNs = d.AllocBytes, d.AllocObjects, d.GCPauseNs
			fmt.Fprintf(os.Stderr, "mixbench: %s allocated %d B in %d objects, gc pause %.0f ns\n",
				t.ID, d.AllocBytes, d.AllocObjects, d.GCPauseNs)
		}
		tables = append(tables, t)
		results = append(results, r)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Format())
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "mixbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mixbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mixbench: wrote %d result(s) to %s\n", len(results), *jsonOut)
	}
}
