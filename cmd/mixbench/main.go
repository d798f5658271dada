// Command mixbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per paper claim (E1–E19). With no flags it runs everything;
// -e selects one experiment, -md emits markdown for EXPERIMENTS.md, and
// -persona replays E19 under one client persona. The tables hold counts;
// wall-clock and allocation numbers live in bench/.
package main

import (
	"flag"
	"fmt"
	"os"

	"mix/internal/experiments"
)

func main() {
	id := flag.String("e", "", "run a single experiment (E1…E19)")
	md := flag.Bool("md", false, "emit markdown instead of aligned text")
	persona := flag.String("persona", "", "run only the speculative prefetch experiment (E19) under this client persona (deep-drill, glance, select-heavy)")
	flag.Parse()

	ids := experiments.IDs()
	if *persona != "" {
		experiments.SetPersona(*persona)
		ids = []string{"E19"}
	}
	if *id != "" {
		ids = []string{*id}
	}
	for i, eid := range ids {
		t, err := experiments.Run(eid)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Println()
		}
		if *md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Format())
		}
	}
}
