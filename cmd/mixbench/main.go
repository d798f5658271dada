// Command mixbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per paper claim (E1–E18). With no flags it runs everything;
// -e selects one experiment and -md emits markdown for EXPERIMENTS.md.
// The tables hold counts; wall-clock and allocation numbers live in
// bench/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mix/internal/cli"
	"mix/internal/experiments"
)

func main() {
	os.Exit(cli.Exit("mixbench", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr))
}

// run is mixbench with the command line args: the tables go to stdout,
// the flag package's complaints to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mixbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	id := fs.String("e", "", "run a single experiment (E1…E18)")
	md := fs.Bool("md", false, "emit markdown instead of aligned text")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	ids := experiments.IDs()
	if *id != "" {
		ids = []string{*id}
	}
	for i, eid := range ids {
		t, err := experiments.Run(eid)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if *md {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t.Format())
		}
	}
	return nil
}
