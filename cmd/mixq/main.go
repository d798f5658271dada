// Command mixq runs XMAS queries against XML file sources and/or
// remote LXP wrappers through the MIX mediator — or, with -connect,
// against a remote mixd mediator over VXDP, in which case the query is
// compiled server-side and only navigation crosses the wire.
//
// Sources are declared with repeated -src flags:
//
//	-src name=path.xml                a local XML document
//	-src name=lxp://host:port/uri     a remote LXP wrapper (cmd/lxpd)
//	-src name=rdb:csvdir              a CSV-backed relational database
//	-src name=demo:books:N            a generated dataset (books|homes|schools)
//
// mediator.OpenSource interprets a declaration, for mixd as for mixq,
// and mediator.Catalog builds the mediator over them: an rdb: or lxp://
// source sits behind a buffer that looks ahead on scans and fills up to
// 8 holes per round trip.
//
// Views can be declared with -view name=path.xmas and referenced by
// queries like sources. The query is read from -q (inline) or -f
// (file). By default the answer is evaluated lazily and printed in
// full; -first k explores only the first k answer children (leaving an
// explicit hole for the rest), -eager uses the materializing baseline,
// -plan prints the final algebra plan, and -stats reports source
// navigation counts.
//
// -trace records the fan-out behind every client navigation: with -i
// each command is followed by its span tree (operator pulls down to
// source navigations, with latencies); otherwise a per-operator summary
// is printed after evaluation. With -connect the session is
// fleet-traced: every command carries a trace context, the server (run
// with mixd -trace) sends back the spans it recorded serving it —
// across proxy hops and peers when clustered — and mixq stitches them
// under its own client spans, rendering ONE forest whose spans are
// node=-tagged with the fleet member that recorded them. -slow dumps
// the server's slow-navigation flight ring (with -connect; the query
// is then optional).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"mix/internal/algebra"
	"mix/internal/cli"
	"mix/internal/mediator"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/trace"
	"mix/internal/vxdp"
	"mix/internal/xmltree"
)

func main() {
	os.Exit(cli.Exit("mixq", run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr), os.Stderr))
}

// options is mixq's command line.
type options struct {
	srcs, views              []string
	connect, q, qf           string
	first                    int
	interactive, eager, plan bool
	stats, trace, slow       bool
}

// run is mixq with the command line args: the answer goes to stdout,
// statistics, traces and the flag package's complaints to stderr; -i
// reads its commands from stdin.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mixq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.Func("src", "source declaration name=path.xml, name=lxp://host:port/uri, name=rdb:csvdir, or name=demo:kind:n (repeatable)",
		func(s string) error { o.srcs = append(o.srcs, s); return nil })
	fs.Func("view", "view declaration name=path.xmas (repeatable)",
		func(s string) error { o.views = append(o.views, s); return nil })
	fs.StringVar(&o.connect, "connect", "", "navigate a remote mixd mediator at host:port (VXDP) instead of local sources")
	fs.StringVar(&o.q, "q", "", "XMAS query text")
	fs.StringVar(&o.qf, "f", "", "file containing the XMAS query")
	fs.IntVar(&o.first, "first", 0, "explore only the first k answer children (0 = all)")
	fs.BoolVar(&o.interactive, "i", false, "navigate the virtual answer interactively (d/r/u/f/t/s/q)")
	fs.BoolVar(&o.eager, "eager", false, "use the materializing baseline evaluator")
	fs.BoolVar(&o.plan, "plan", false, "print the final algebra plan")
	fs.BoolVar(&o.stats, "stats", false, "print per-source navigation counts")
	fs.BoolVar(&o.trace, "trace", false, "print the operator/source fan-out behind each navigation")
	fs.BoolVar(&o.slow, "slow", false, "with -connect: dump the server's slow-navigation flight ring after the query (query optional)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	query := o.q
	if o.qf != "" {
		data, err := os.ReadFile(o.qf)
		if err != nil {
			return err
		}
		query = string(data)
	}
	if strings.TrimSpace(query) == "" && !(o.slow && o.connect != "") {
		return cli.Usage(errors.New("no query; use -q or -f (and see -help)"))
	}

	if o.connect != "" {
		if len(o.srcs) > 0 || len(o.views) > 0 || o.eager || o.plan {
			return errors.New("-connect navigates the server's sources and views; -src/-view/-eager/-plan do not apply")
		}
		return runRemote(o, query, stdin, stdout, stderr)
	}
	if o.slow {
		return errors.New("-slow reads a server's flight ring; it needs -connect")
	}
	var rec *trace.Recorder
	if o.trace {
		if o.eager {
			return errors.New("-trace instruments the lazy engine; it does not apply to -eager")
		}
		rec = trace.New()
	}
	cat, err := mediator.OpenCatalog(o.srcs, o.views)
	if err != nil {
		return err
	}
	defer cat.Close()
	navs := map[string]*metrics.Counters{}
	m, err := cat.Mediator(nil, navs)
	if err != nil {
		return err
	}

	if o.plan {
		p, err := m.Prepare(query)
		if err != nil {
			return err
		}
		cls, culprit := algebra.Classify(p, false)
		fmt.Fprintf(stdout, "browsability: %s", cls)
		if culprit != nil {
			fmt.Fprintf(stdout, " (due to %T)", culprit)
		}
		fmt.Fprintf(stdout, "\n%s", algebra.String(p))
		return nil
	}

	var answer *xmltree.Tree
	if o.eager && !o.interactive {
		if answer, err = m.QueryEager(query); err != nil {
			return err
		}
	} else {
		res, err := m.Query(query)
		if err != nil {
			return err
		}
		doc := res.TracedDocument(rec)
		if rec != nil {
			doc = trace.NewDoc(doc, trace.ClientLabel, rec)
		}
		if o.interactive {
			var after func(io.Writer)
			if rec != nil {
				after = func(w io.Writer) { printForest(w, rec.Take()) }
			}
			return interact(doc, stdin, stdout, after)
		}
		if answer, err = explore(doc, o.first); err != nil {
			return err
		}
	}
	fmt.Fprint(stdout, xmltree.MarshalIndent(answer))

	if rec != nil {
		printSummary(stderr, rec.Take())
	}
	if o.stats {
		fmt.Fprintln(stderr)
		for _, s := range cat.Sources {
			fmt.Fprintf(stderr, "source %-16s %s\n", s.Name, navs[s.Name].Snapshot())
		}
	}
	return nil
}

// explore materializes the answer doc, or only its first k children
// when k > 0.
func explore(doc nav.Document, k int) (*xmltree.Tree, error) {
	if k > 0 {
		return nav.ExploreFirst(doc, k)
	}
	return nav.Materialize(doc)
}

// printForest renders a navigation's span forest and its
// source-navigation totals — the per-command output of -i -trace.
func printForest(out io.Writer, roots []*trace.Span) {
	fmt.Fprint(out, trace.Format(roots))
	if totals := trace.SourceTotals(roots); len(totals) > 0 {
		fmt.Fprint(out, "source navigations:")
		for _, op := range []string{"d", "r", "f", "select", "root"} {
			if totals[op] > 0 {
				fmt.Fprintf(out, " %s=%d", op, totals[op])
			}
		}
		fmt.Fprintln(out)
	}
	printNodes(out, roots)
}

// printSummary renders the per-(operator, command) aggregation of a
// whole evaluation — the batch-mode output of -trace.
func printSummary(out io.Writer, roots []*trace.Span) {
	sum := trace.Summarize(roots)
	fmt.Fprintln(out, "\ntrace summary (label op count total):")
	for _, s := range sum {
		fmt.Fprintf(out, "  %-28s %-6s %6d %s\n", s.Label, s.Op, s.Count, s.Total.Round(time.Microsecond))
	}
	fmt.Fprintf(out, "source navigations: %d\n", trace.SourceNavigations(roots))
	printNodes(out, roots)
}

// printNodes renders the per-node span totals of a stitched fleet
// forest ("nodes: addr1=n addr2=m", sorted); silent for purely local
// traces, whose spans carry no node tags.
func printNodes(out io.Writer, roots []*trace.Span) {
	totals := trace.NodeTotals(roots)
	names := make([]string, 0, len(totals))
	for name := range totals {
		if name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprint(out, "nodes:")
	for _, name := range names {
		fmt.Fprintf(out, " %s=%d", name, totals[name])
	}
	fmt.Fprintln(out)
}

// runRemote opens the query as a session on the mixd server at
// o.connect and navigates the remote virtual answer. With -trace the
// session is fleet-traced client-side: a local recorder roots a span per
// command and the spans the fleet returns are stitched under it, so the
// rendered forest is the single cross-node tree.
func runRemote(o *options, query string, stdin io.Reader, stdout, stderr io.Writer) error {
	client, err := vxdp.Dial(o.connect)
	if err != nil {
		return fmt.Errorf("dialing %s: %w", o.connect, err)
	}
	defer client.Close()
	var rec *trace.Recorder
	if o.trace {
		rec = trace.New()
		client.SetTracer(rec)
	}
	if strings.TrimSpace(query) == "" {
		// -slow without a query: just dump the ring.
		return dumpSlow(stdout, client)
	}
	if err := client.Open(query); err != nil {
		return err
	}
	// printTrace renders the spans recorded since the last call; lead
	// precedes a note that the trace is empty or holds client spans only.
	printTrace := func(w io.Writer, lead string, print func(io.Writer, []*trace.Span)) {
		roots := rec.Take()
		if len(roots) == 0 {
			fmt.Fprint(w, lead, "trace: empty\n")
			return
		}
		if !stitched(roots) {
			fmt.Fprint(w, lead, "trace: client spans only (is the server running with mixd -trace?)\n")
		}
		print(w, roots)
	}
	if o.interactive {
		var after func(io.Writer)
		if o.trace {
			after = func(w io.Writer) { printTrace(w, "", printForest) }
		}
		return interact(client, stdin, stdout, after)
	}
	answer, err := explore(client, o.first)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, xmltree.MarshalIndent(answer))
	if o.trace {
		printTrace(stderr, "\n", printSummary)
	}
	if o.slow {
		if err := dumpSlow(stderr, client); err != nil {
			return err
		}
	}
	if o.stats {
		st, err := client.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "\nround trips: %d\nserver: %s\n", client.RoundTrips(), st)
	}
	return nil
}

// stitched reports whether any root received server-side children — the
// signal that the fleet actually returned spans to graft.
func stitched(roots []*trace.Span) bool {
	for _, sp := range roots {
		if len(sp.Children) > 0 {
			return true
		}
	}
	return false
}

// dumpSlow renders the server's slow-navigation flight ring.
func dumpSlow(out io.Writer, client *vxdp.Client) error {
	slow, err := client.Slow()
	if err != nil {
		return fmt.Errorf("slow: %w", err)
	}
	if len(slow) == 0 {
		fmt.Fprintln(out, "slow: ring empty (server untraced, threshold unmet, or nothing slow yet)")
		return nil
	}
	fmt.Fprintf(out, "slow navigations retained: %d\n", len(slow))
	for _, sn := range slow {
		fmt.Fprintf(out, "\n#%d %s node=%s dur=%s\n", sn.Seq,
			time.UnixMilli(sn.UnixMs).UTC().Format(time.RFC3339), sn.Node, time.Duration(sn.DurNs))
		fmt.Fprint(out, trace.Format([]*trace.Span{sn.Root}))
	}
	return nil
}
