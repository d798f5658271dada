// Command mixbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per paper claim (E1–E18). With no flags it runs everything;
// -e selects one experiment and -md emits markdown for EXPERIMENTS.md.
// The tables hold counts; wall-clock and allocation numbers live in
// bench/.
package main

import (
	"flag"
	"fmt"
	"os"

	"mix/internal/experiments"
)

func main() {
	id := flag.String("e", "", "run a single experiment (E1…E18)")
	md := flag.Bool("md", false, "emit markdown instead of aligned text")
	flag.Parse()

	ids := experiments.IDs()
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
