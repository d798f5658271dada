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
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/relational"
	"mix/internal/trace"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmltree"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

func main() {
	var srcs, views multiFlag
	flag.Var(&srcs, "src", "source declaration name=path.xml, name=lxp://host:port/uri, name=rdb:csvdir, or name=demo:kind:n (repeatable)")
	flag.Var(&views, "view", "view declaration name=path.xmas (repeatable)")
	connect := flag.String("connect", "", "navigate a remote mixd mediator at host:port (VXDP) instead of local sources")
	q := flag.String("q", "", "XMAS query text")
	qf := flag.String("f", "", "file containing the XMAS query")
	first := flag.Int("first", 0, "explore only the first k answer children (0 = all)")
	interactive := flag.Bool("i", false, "navigate the virtual answer interactively (d/r/u/f/t/s/q)")
	eager := flag.Bool("eager", false, "use the materializing baseline evaluator")
	plan := flag.Bool("plan", false, "print the final algebra plan")
	stats := flag.Bool("stats", false, "print per-source navigation counts")
	traceOn := flag.Bool("trace", false, "print the operator/source fan-out behind each navigation")
	slowDump := flag.Bool("slow", false, "with -connect: dump the server's slow-navigation flight ring after the query (query optional)")
	flag.Parse()

	query := *q
	if *qf != "" {
		data, err := os.ReadFile(*qf)
		if err != nil {
			fatal(err)
		}
		query = string(data)
	}
	if strings.TrimSpace(query) == "" && !(*slowDump && *connect != "") {
		fmt.Fprintln(os.Stderr, "mixq: no query; use -q or -f (and see -help)")
		os.Exit(2)
	}

	if *connect != "" {
		if len(srcs) > 0 || len(views) > 0 || *eager || *plan {
			fatal(fmt.Errorf("-connect navigates the server's sources and views; -src/-view/-eager/-plan do not apply"))
		}
		if err := runRemote(*connect, query, *first, *interactive, *stats, *traceOn, *slowDump); err != nil {
			fatal(err)
		}
		return
	}
	if *slowDump {
		fatal(fmt.Errorf("-slow reads a server's flight ring; it needs -connect"))
	}

	m := mediator.New(mediator.DefaultOptions())
	var rec *trace.Recorder
	if *traceOn {
		if *eager {
			fatal(fmt.Errorf("-trace instruments the lazy engine; it does not apply to -eager"))
		}
		rec = trace.New()
	}
	counters := map[string]*nav.CountingDoc{}
	for _, s := range srcs {
		name, loc, ok := strings.Cut(s, "=")
		if !ok {
			fatal(fmt.Errorf("malformed -src %q (want name=location)", s))
		}
		doc, err := openSource(name, loc)
		if err != nil {
			fatal(err)
		}
		cd := nav.NewCountingDoc(doc)
		counters[name] = cd
		m.RegisterSource(name, cd)
	}
	for _, v := range views {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			fatal(fmt.Errorf("malformed -view %q (want name=path)", v))
		}
		text, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if err := m.DefineView(name, string(text)); err != nil {
			fatal(err)
		}
	}

	if *plan {
		p, err := m.Prepare(query)
		if err != nil {
			fatal(err)
		}
		cls, culprit := algebra.Classify(p, false)
		fmt.Printf("browsability: %s", cls)
		if culprit != nil {
			fmt.Printf(" (due to %T)", culprit)
		}
		fmt.Printf("\n%s", algebra.String(p))
		return
	}

	if *interactive {
		res, err := m.Query(query)
		if err != nil {
			fatal(err)
		}
		doc := res.TracedDocument(rec)
		var after func(io.Writer)
		if rec != nil {
			doc = trace.NewDoc(doc, trace.ClientLabel, rec)
			after = func(w io.Writer) { printForest(w, rec.Take()) }
		}
		root, err := mediator.Wrap(doc)
		if err != nil {
			fatal(err)
		}
		if err := interact(root, os.Stdin, os.Stdout, after); err != nil {
			fatal(err)
		}
		return
	}

	var answer *xmltree.Tree
	var err error
	if *eager {
		answer, err = m.QueryEager(query)
	} else {
		var res *mediator.Result
		res, err = m.Query(query)
		if err == nil {
			doc := res.TracedDocument(rec)
			if rec != nil {
				doc = trace.NewDoc(doc, trace.ClientLabel, rec)
			}
			if *first > 0 {
				answer, err = nav.ExploreFirst(doc, *first)
			} else {
				answer, err = nav.Materialize(doc)
			}
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Print(xmltree.MarshalIndent(answer))

	if rec != nil {
		printSummary(os.Stderr, rec.Take())
	}
	if *stats {
		fmt.Fprintln(os.Stderr)
		for name, cd := range counters {
			fmt.Fprintf(os.Stderr, "source %-16s %s\n", name, cd.Counters.Snapshot())
		}
	}
}

// printForest renders a navigation's span forest and its
// source-navigation totals — the per-command output of -i -trace.
func printForest(out io.Writer, roots []*trace.Span) {
	if len(roots) == 0 {
		return
	}
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
	if len(sum) == 0 {
		return
	}
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

// runRemote opens the query as a session on a mixd server and
// navigates the remote virtual answer. With traceOn the session is
// fleet-traced client-side: a local recorder roots a span per command
// and the spans the fleet returns are stitched under it, so the
// rendered forest is the single cross-node tree.
func runRemote(addr, query string, first int, interactive, stats, traceOn, slowDump bool) error {
	client, err := vxdp.Dial(addr)
	if err != nil {
		return fmt.Errorf("dialing %s: %w", addr, err)
	}
	defer client.Close()
	var rec *trace.Recorder
	if traceOn {
		rec = trace.New()
		client.SetTracer(rec)
	}
	if strings.TrimSpace(query) == "" {
		// -slow without a query: just dump the ring.
		return dumpSlow(os.Stdout, client)
	}
	if err := client.Open(query); err != nil {
		return err
	}
	if interactive {
		root, err := mediator.Wrap(client)
		if err != nil {
			return err
		}
		var after func(io.Writer)
		if traceOn {
			after = func(w io.Writer) {
				roots := rec.Take()
				if len(roots) == 0 {
					fmt.Fprintln(w, "trace: empty")
					return
				}
				if !stitched(roots) {
					fmt.Fprintln(w, "trace: client spans only (is the server running with mixd -trace?)")
				}
				printForest(w, roots)
			}
		}
		return interact(root, os.Stdin, os.Stdout, after)
	}
	var answer *xmltree.Tree
	if first > 0 {
		answer, err = nav.ExploreFirst(client, first)
	} else {
		answer, err = nav.Materialize(client)
	}
	if err != nil {
		return err
	}
	fmt.Print(xmltree.MarshalIndent(answer))
	if traceOn {
		roots := rec.Take()
		if len(roots) == 0 {
			fmt.Fprintln(os.Stderr, "\ntrace: empty")
		} else {
			if !stitched(roots) {
				fmt.Fprintln(os.Stderr, "\ntrace: client spans only (is the server running with mixd -trace?)")
			}
			printSummary(os.Stderr, roots)
		}
	}
	if slowDump {
		if err := dumpSlow(os.Stderr, client); err != nil {
			return err
		}
	}
	if stats {
		st, err := client.Stats()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "\nround trips: %d\nserver: %s\n", client.RoundTrips(), st)
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

// openSource interprets a source location.
func openSource(name, loc string) (nav.Document, error) {
	var srv lxp.Server // set for sources served through the generic buffer
	uri := name
	if dir, ok := strings.CutPrefix(loc, "rdb:"); ok {
		// A directory of CSV files becomes a relational database
		// behind the Section 4 relational wrapper (n tuples in the first
		// fill of a table, lxp.ChunkAt growth after that).
		db, err := relational.LoadCSVDir(name, dir)
		if err != nil {
			return nil, err
		}
		srv = &wrapper.Relational{DB: db, ChunkRows: 50}
	} else if rest, ok := strings.CutPrefix(loc, "lxp://"); ok {
		addr, u, ok := strings.Cut(rest, "/")
		if !ok {
			return nil, fmt.Errorf("malformed LXP url %q (want lxp://host:port/uri)", loc)
		}
		client, err := lxp.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("dialing %s: %w", addr, err)
		}
		srv, uri = client, u
	}
	if srv != nil {
		// The buffer as mediator.RegisterLXP builds it, scan lookahead on;
		// registered by the caller so it can be wrapped in counters.
		b, err := buffer.New(srv, uri)
		if err != nil {
			return nil, err
		}
		b.EnableLookahead()
		return b, nil
	}
	if rest, ok := strings.CutPrefix(loc, "demo:"); ok {
		// Generated datasets, like mixd's: demo:kind or demo:kind:n.
		kind, nstr, _ := strings.Cut(rest, ":")
		n := 1000
		if nstr != "" {
			var err error
			if n, err = strconv.Atoi(nstr); err != nil {
				return nil, fmt.Errorf("malformed demo size %q", nstr)
			}
		}
		t, err := workload.Demo(kind, name, n)
		if err != nil {
			return nil, err
		}
		return nav.NewTreeDoc(t), nil
	}
	data, err := os.ReadFile(loc)
	if err != nil {
		return nil, err
	}
	t, err := xmltree.UnmarshalXML(string(data))
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", loc, err)
	}
	return nav.NewTreeDoc(t), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mixq:", err)
	os.Exit(1)
}
