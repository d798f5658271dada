package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mix/internal/nav"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

// expectation is the oracle's verdict for one (view answer, script)
// pair: the script, the hash of the explored parts an uncached local
// replay of it yields, and how many navigation commands that replay
// issues.
type expectation struct {
	script []workload.Step
	hash   uint64
	cmds   int
}

// explore is the navigation every session performs, written once so the
// oracle and the clients cannot drift apart: fetch the label of the
// root's first child (the first answer), then replay the persona
// script, folding every explored part into h.
func explore(doc nav.Document, script []workload.Step, h hash.Hash64, firstAnswer func()) error {
	root, err := doc.Root()
	if err != nil {
		return err
	}
	child, err := doc.Down(root)
	if err != nil {
		return err
	}
	if child == nil {
		return fmt.Errorf("answer has no first child")
	}
	label, err := doc.Fetch(child)
	if err != nil {
		return err
	}
	if firstAnswer != nil {
		firstAnswer()
	}
	fold := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	fold(label)
	return workload.ReplayPersona(doc, script, func(_ int, explored string) error {
		fold(explored)
		return nil
	})
}

// countDoc counts the commands a replay issues against a local
// document and offers the label-select jump a VXDP client has, so the
// oracle's command count equals the client's.
type countDoc struct {
	nav.Document
	n int
}

func (d *countDoc) Root() (nav.ID, error)          { d.n++; return d.Document.Root() }
func (d *countDoc) Down(p nav.ID) (nav.ID, error)  { d.n++; return d.Document.Down(p) }
func (d *countDoc) Right(p nav.ID) (nav.ID, error) { d.n++; return d.Document.Right(p) }
func (d *countDoc) Fetch(p nav.ID) (string, error) { d.n++; return d.Document.Fetch(p) }
func (d *countDoc) SelectLabel(p nav.ID, label string, fromSelf bool) (nav.ID, error) {
	d.n++
	return nav.Select(d.Document, p, nav.LabelIs(label), fromSelf)
}

// computeOracle replays every distinct (family, script) pair of the
// list once on an uncached mediator, and checks for every family that
// the lazy answer, fully materialized, equals the eager evaluator's.
func computeOracle(sp *spec, src *sources, list []session) (map[scriptKey]expectation, error) {
	m, err := src.uncached()
	if err != nil {
		return nil, err
	}
	for i := range sp.families {
		q := sp.families[i].query(1)
		res, err := m.Query(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", sp.families[i].name, err)
		}
		lazy, err := nav.Materialize(res.Document())
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", sp.families[i].name, err)
		}
		eager, err := m.QueryEager(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: eager: %w", sp.families[i].name, err)
		}
		if xmltree.MarshalXML(lazy) != xmltree.MarshalXML(eager) {
			return nil, fmt.Errorf("oracle: %s: lazy and eager answers differ", sp.families[i].name)
		}
		if len(lazy.Children) < regions {
			return nil, fmt.Errorf("oracle: %s: answer has %d regions, scripts need %d",
				sp.families[i].name, len(lazy.Children), regions)
		}
	}
	want := map[scriptKey]expectation{}
	for _, s := range list {
		k := s.key()
		if _, ok := want[k]; ok {
			continue
		}
		res, err := m.Query(sp.families[k.family].query(1))
		if err != nil {
			return nil, err
		}
		doc := &countDoc{Document: res.Document()}
		h := fnv.New64a()
		script := k.script()
		if err := explore(doc, script, h, nil); err != nil {
			return nil, fmt.Errorf("oracle: %s/%s: %w", sp.families[k.family].name, personas[k.persona], err)
		}
		want[k] = expectation{script: script, hash: h.Sum64(), cmds: doc.n}
	}
	return want, nil
}

// clientRec is what one client goroutine records during a round. All
// slices are sized before the round so recording allocates nothing.
type clientRec struct {
	cmdUs      []float64 // one per navigation command
	firstUs    []float64 // one per session: open sent → first child's label
	openUs     []float64
	sessMs     []float64
	roundTrips int64
	wireBytes  int64
	cmds       int
	failed     int
	spans      []span // traced rounds only
}

// timedDoc is the client-side clock: a vxdp.Client seen as a
// nav.Document with every command timed.
type timedDoc struct {
	c      *vxdp.Client
	rec    *clientRec
	tr     *tracer // nil unless tracing
	parent int     // enclosing span while tracing
	sess   *sessionCtx
}

type sessionCtx struct {
	index          int
	persona, class string
	node           int
}

func (d *timedDoc) done(op string, start time.Time) {
	end := time.Now()
	us := float64(end.Sub(start)) / 1e3
	d.rec.cmdUs = append(d.rec.cmdUs, us)
	if d.tr != nil {
		d.tr.add(d.rec, span{Parent: d.parent, Name: "cmd", Op: op, Session: d.sess.index,
			Persona: d.sess.persona, Class: d.sess.class, Node: d.sess.node}, start, end)
	}
}

func (d *timedDoc) Root() (nav.ID, error) {
	t := time.Now()
	id, err := d.c.Root()
	d.done(vxdp.OpRoot, t)
	return id, err
}

func (d *timedDoc) Down(p nav.ID) (nav.ID, error) {
	t := time.Now()
	id, err := d.c.Down(p)
	d.done(vxdp.OpDown, t)
	return id, err
}

func (d *timedDoc) Right(p nav.ID) (nav.ID, error) {
	t := time.Now()
	id, err := d.c.Right(p)
	d.done(vxdp.OpRight, t)
	return id, err
}

func (d *timedDoc) Fetch(p nav.ID) (string, error) {
	t := time.Now()
	s, err := d.c.Fetch(p)
	d.done(vxdp.OpFetch, t)
	return s, err
}

func (d *timedDoc) SelectLabel(p nav.ID, label string, fromSelf bool) (nav.ID, error) {
	t := time.Now()
	id, err := d.c.SelectLabel(p, label, fromSelf)
	d.done(vxdp.OpSelect, t)
	return id, err
}

// runner drives one booted fleet with one session list.
type runner struct {
	sp     *spec
	fleet  *fleet
	list   []session
	want   map[scriptKey]expectation
	recs   [clients]*clientRec
	tr     *tracer
	rounds int // rounds run so far; freshens per-session constants
}

func newRunner(sp *spec, f *fleet, list []session, want map[scriptKey]expectation) *runner {
	r := &runner{sp: sp, fleet: f, list: list, want: want}
	total, _ := r.perRound()
	for i := range r.recs {
		r.recs[i] = &clientRec{
			cmdUs:   make([]float64, 0, total),
			firstUs: make([]float64, 0, len(list)),
			openUs:  make([]float64, 0, len(list)),
			sessMs:  make([]float64, 0, len(list)),
		}
	}
	return r
}

// perRound is the number of navigation commands one round issues and
// the number of region visits its scripts make — pure functions of the
// session list.
func (r *runner) perRound() (cmds, visits int) {
	for _, s := range r.list {
		e := r.want[s.key()]
		cmds += e.cmds
		visits += len(e.script)
	}
	return cmds, visits
}

// session runs one scripted session and checks it against the oracle.
func (r *runner) session(rec *clientRec, idx, round int) error {
	s := r.list[idx]
	fam := &r.sp.families[s.family]
	want := r.want[s.key()]
	// The constant stays below every value the always-true comparisons
	// test against (zip codes ≥ 91000, prices ≥ 100000).
	query := fam.query(1 + (round*len(r.list)+idx)%80000)
	ctx := &sessionCtx{index: idx, persona: personas[s.persona], class: fam.class.String(), node: s.node}
	mark := len(rec.cmdUs)
	fail := func(err error) error {
		// A failed session counts as missing every latency.
		rec.cmdUs = rec.cmdUs[:mark]
		rec.failed++
		return fmt.Errorf("session %d (%s, %s): %w", idx, fam.name, ctx.persona, err)
	}

	sessSpan := -1
	start := time.Now()
	if r.tr != nil {
		sessSpan = r.tr.open(rec, span{Parent: -1, Name: "session", Session: idx,
			Persona: ctx.persona, Class: ctx.class, Node: s.node}, start)
	}
	conn, c, err := dial(r.fleet.members[s.node].addr, r.tr != nil)
	if err != nil {
		return fail(err)
	}
	defer c.Close()
	dialed := time.Now()
	err = c.Open(query)
	opened := time.Now()
	if err != nil {
		return fail(err)
	}
	doc := &timedDoc{c: c, rec: rec, tr: r.tr, parent: sessSpan, sess: ctx}
	var first time.Time
	h := fnv.New64a()
	if err := explore(doc, want.script, h, func() { first = time.Now() }); err != nil {
		return fail(err)
	}
	end := time.Now()
	if got := len(rec.cmdUs) - mark; got != want.cmds {
		return fail(fmt.Errorf("issued %d commands, oracle replay issued %d", got, want.cmds))
	}
	if h.Sum64() != want.hash {
		return fail(fmt.Errorf("explored part differs from the oracle"))
	}
	rec.cmds += want.cmds
	rec.openUs = append(rec.openUs, float64(opened.Sub(dialed))/1e3)
	rec.firstUs = append(rec.firstUs, float64(first.Sub(dialed))/1e3)
	rec.sessMs = append(rec.sessMs, float64(end.Sub(start))/1e6)
	rec.roundTrips += c.RoundTrips()
	if conn != nil {
		rec.wireBytes += conn.bytes.Load()
	}
	if r.tr != nil {
		r.tr.add(rec, span{Parent: sessSpan, Name: "dial", Session: idx, Node: s.node}, start, dialed)
		r.tr.add(rec, span{Parent: sessSpan, Name: "open", Session: idx, Class: ctx.class, Node: s.node}, dialed, opened)
		r.tr.add(rec, span{Parent: sessSpan, Name: "first_answer", Session: idx, Class: ctx.class, Node: s.node}, dialed, first)
		r.tr.close(rec, sessSpan, end)
	}
	return nil
}

// roundResult is everything one round measured.
type roundResult struct {
	elapsed                time.Duration
	sessions, failed, cmds int
	cmdsPerS               float64
	cmdP50, cmdP95, cmdP99 float64 // µs
	firstP50, openP50      float64 // µs
	sessP50Ms              float64
	allocPerCmd            float64
	cpuUsPerCmd            float64
	gcPauseMs              float64
	heapSysMB              float64
	roundTrips, wireBytes  int64
	firstSamples           int
	delta                  counters
	errs                   []error
	hist                   []float64 // sorted command latencies, kept on request
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// prepare puts the fleet into the round's start state, untimed: before
// the first round, and before every round of a workload that restores,
// each warm view is explored completely through a client — so its
// region is complete (usable by the semantic tier) and every later
// command on it is an exact hit.
func (r *runner) prepare() error {
	if r.rounds > 0 && !r.sp.restore {
		return nil
	}
	if r.rounds > 0 {
		if err := r.fleet.invalidate(); err != nil {
			return err
		}
	}
	for _, fam := range r.sp.families {
		if fam.fresh {
			continue
		}
		c, err := vxdp.Dial(r.fleet.members[0].addr)
		if err != nil {
			return err
		}
		err = c.Open(fam.text)
		if err == nil {
			_, err = nav.Materialize(c)
		}
		c.Close()
		if err != nil {
			return fmt.Errorf("exploring view %s: %w", fam.name, err)
		}
	}
	r.fleet.flush()
	return nil
}

// round replays the whole session list once with C closed-loop clients
// and measures it. Sessions are handed out from a shared counter, so a
// client that draws short sessions takes more of them and both finish
// together.
func (r *runner) round(keepHist bool) roundResult {
	if err := r.prepare(); err != nil {
		return roundResult{sessions: len(r.list), failed: len(r.list), errs: []error{err}}
	}
	round := r.rounds
	r.rounds++
	for _, rec := range r.recs {
		*rec = clientRec{cmdUs: rec.cmdUs[:0], firstUs: rec.firstUs[:0], openUs: rec.openUs[:0],
			sessMs: rec.sessMs[:0], spans: rec.spans[:0]}
	}
	runtime.GC()
	before := r.fleet.counters()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	start := time.Now()
	for _, rec := range r.recs {
		wg.Add(1)
		go func(rec *clientRec) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.list) {
					return
				}
				if r.sp.bump {
					r.fleet.members[0].srv.BumpRegistry()
				}
				if err := r.session(rec, i, round); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(rec)
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	// Round boundary, untimed: let speculation come to rest and do what
	// the cluster's flush timer would have done.
	r.fleet.quiesce()
	r.fleet.flush()
	res := roundResult{elapsed: elapsed, sessions: len(r.list), errs: errs, delta: r.fleet.counters().sub(before)}
	var cmdUs, firstUs, openUs, sessMs []float64
	for _, rec := range r.recs {
		cmdUs = append(cmdUs, rec.cmdUs...)
		firstUs = append(firstUs, rec.firstUs...)
		openUs = append(openUs, rec.openUs...)
		sessMs = append(sessMs, rec.sessMs...)
		res.failed += rec.failed
		res.cmds += rec.cmds
		res.roundTrips += rec.roundTrips
		res.wireBytes += rec.wireBytes
	}
	for _, s := range [][]float64{cmdUs, firstUs, openUs, sessMs} {
		sort.Float64s(s)
	}
	cmds := float64(res.cmds)
	res.cmdsPerS = cmds / elapsed.Seconds()
	res.cmdP50, res.cmdP95, res.cmdP99 = percentile(cmdUs, 50), percentile(cmdUs, 95), percentile(cmdUs, 99)
	res.firstP50, res.openP50, res.sessP50Ms = percentile(firstUs, 50), percentile(openUs, 50), percentile(sessMs, 50)
	res.firstSamples = len(firstUs)
	res.allocPerCmd = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), cmds)
	res.cpuUsPerCmd = ratio(float64(cpu)/1e3, cmds)
	res.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	res.heapSysMB = float64(ms1.HeapSys) / (1 << 20)
	if keepHist {
		res.hist = cmdUs
	}
	return res
}
