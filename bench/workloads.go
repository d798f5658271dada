package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"mix/internal/workload"
)

// Frozen sizes. A round is a fixed list of sessions, never a time box:
// the session counts below were calibrated once so that a round takes
// about roundTarget on the 2-core reference box (see README.md,
// "Frozen sizes"), and are constants from then on. -seconds scales
// them proportionally; nothing is calibrated at run time.
const (
	runSeconds     = 10 // BENCHMARK.json run_seconds: 5 measured rounds
	measuredRounds = 5
	setupReps      = 3 // set-ups per run; setup_s is their median
	clients        = 2 // closed loop, C = 2 connections
	regions        = 16
	scriptVariants = 4 // seeded glance / select-heavy scripts per view
	smokeSessions  = 12
)

// Persona names, in mix order.
var personas = [3]string{"deep-drill", "glance", "select-heavy"}

// viewClass says how the server is expected to resolve a session's
// view; it tags spans and decides the provenance shares.
type viewClass uint8

const (
	classWarm     viewClass = iota // fingerprint seen before, region in L1
	classSemantic                  // fresh fingerprint, subsumed by a warm complete view
	classCold                      // fresh fingerprint, nothing subsumes it
)

func (c viewClass) String() string {
	return [...]string{"warm", "semantic", "cold"}[c]
}

// family is a set of queries with one answer: either a single fixed
// text (a warm view) or a template whose %d slot takes a per-session
// constant inside a condition that always holds, so every instance has
// a fresh plan fingerprint and the same explored parts.
type family struct {
	name   string
	class  viewClass
	text   string
	fresh  bool
	weight float64 // share within its class
}

// query renders the family's text for the session constant k.
func (f *family) query(k int) string {
	if !f.fresh {
		return f.text
	}
	return fmt.Sprintf(f.text, k)
}

// spec is one workload: its topology, its data, its view families and
// its frozen size.
type spec struct {
	name  string
	why   string
	nodes int
	// cacheBytes is the region cache budget per node (-cache-max-bytes).
	cacheBytes int64
	// sessions is the frozen per-round session count at -seconds =
	// runSeconds.
	sessions int
	// mix is the persona mix, in the order of personas.
	mix [3]float64
	// classShare is the share of sessions per view class.
	classShare [3]float64
	families   []family
	// bump calls Server.BumpRegistry before every session: the sources
	// "changed", so each session meets cold engines, cold buffers and an
	// empty cache, and the LXP path stays loaded.
	bump bool
	// restore puts the fleet back into its start state before every
	// round — sources "changed", warm views explored again — so the
	// fresh views of one round are not still cached in the next and every
	// round does identical work.
	restore bool
	// remote selects LXP sources behind TCP wrappers with an injected
	// per-request delay, instead of in-memory trees.
	remote bool
	// data sizes the in-memory sources.
	data dataSizes
}

type dataSizes struct {
	homes, schools, zips int
	detailHomes, detail  int // DetailedHomes source (0 = none)
}

func zipf(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(i+1)
	}
	return w
}

// warmViews are the eight fixed views of warm-browse and fleet-mixed,
// most popular first (Zipf weights).
func warmViews() []family {
	texts := []struct{ name, text string }{
		{"homes", `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H`},
		{"med-home", `CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1 AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`},
		{"schools", `CONSTRUCT <schools> $S {$S} </schools> {} WHERE schoolsSrc schools.school $S`},
		{"cheap", `CONSTRUCT <cheap> $H {$H} </cheap> {} WHERE homesSrc homes.home $H AND $H price._ $P AND $P < "700000"`},
		{"dear", `CONSTRUCT <dear> $H {$H} </dear> {} WHERE homesSrc homes.home $H AND $H price._ $P AND $P >= "400000"`},
		{"addrs", `CONSTRUCT <addrs> $A {$A} </addrs> {} WHERE homesSrc homes.home.addr $A`},
		{"dirs", `CONSTRUCT <dirs> $D {$D} </dirs> {} WHERE schoolsSrc schools.school.dir $D`},
		{"zips", `CONSTRUCT <zips> $Z {$Z} </zips> {} WHERE homesSrc homes.home.zip $Z`},
	}
	w := zipf(len(texts))
	out := make([]family, len(texts))
	for i, t := range texts {
		out[i] = family{name: t.name, class: classWarm, text: t.text, weight: w[i]}
	}
	return out
}

// semanticViews are σ-restrictions of the warm "homes" view. The second
// comparison always holds (prices start at 100000, constants stay far
// below), so the constant only freshens the fingerprint.
func semanticViews() []family {
	var out []family
	for _, limit := range []int{600000, 700000, 800000, 900000} {
		out = append(out, family{
			name: fmt.Sprintf("homes-under-%d", limit), class: classSemantic, fresh: true, weight: 1,
			text: `CONSTRUCT <homes> $H {$H} </homes> {} WHERE homesSrc homes.home $H AND $H price._ $P AND $P < "` +
				fmt.Sprint(limit) + `" AND $P > "%d"`,
		})
	}
	return out
}

// Join + groupBy templates. Zip codes start at 91000, so the trailing
// comparison always holds.
const (
	medHomeFresh = `CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1 AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2 AND $V1 > "%d"`
	bySchoolFresh = `CONSTRUCT <byschool> <sch> $S $H {$H} </sch> {$S} </byschool> {}
WHERE schoolsSrc schools.school $S AND $S zip._ $V2 AND homesSrc homes.home $H AND $H zip._ $V1 AND $V1 = $V2 AND $V2 > "%d"`
	byZipFresh = `CONSTRUCT <zips> <z> $V $H {$H} </z> {$V} </zips> {}
WHERE detailSrc homes.home $H AND $H zip._ $V AND $V > "%d"`
)

// Selection-shaped light plans over the three LXP sources. The last
// comparison of each always holds.
const (
	relFresh = `CONSTRUCT <rows> $R {$R} </rows> {}
WHERE relSrc rdb.homes._ $R AND $R beds._ $B AND $B >= "3" AND $B > "-%d"`
	webFresh = `CONSTRUCT <hits> $B {$B} </hits> {}
WHERE webSrc catalog.book $B AND $B subject._ $S AND $S = "databases" AND $B price._ $P AND $P > "-%d"`
	xmlFresh = `CONSTRUCT <picks> $H {$H} </picks> {}
WHERE xmlSrc homes.home $H AND $H price._ $P AND $P < "550000" AND $P > "%d"`
)

var specs = []spec{
	{
		name:  "warm-browse",
		why:   "every command is an exact region-cache hit: codec, session loop and cache reads do all the work",
		nodes: 1, cacheBytes: 64 << 20, sessions: 600,
		mix: [3]float64{0.5, 0.3, 0.2}, classShare: [3]float64{1, 0, 0},
		families: warmViews(),
		data:     dataSizes{homes: 48, schools: 24, zips: 8},
	},
	{
		name:  "cold-compute",
		why:   "every open is a fresh join+groupBy plan: compile and operator pipeline dominate, cache only writes and evicts",
		nodes: 1, cacheBytes: 1 << 20, sessions: 100,
		mix: [3]float64{0.5, 0.3, 0.2}, classShare: [3]float64{0, 0, 1},
		families: []family{
			{name: "med-home", class: classCold, fresh: true, weight: 3, text: medHomeFresh},
			{name: "by-school", class: classCold, fresh: true, weight: 1, text: bySchoolFresh},
			{name: "by-zip", class: classCold, fresh: true, weight: 1, text: byZipFresh},
		},
		data: dataSizes{homes: 400, schools: 200, zips: 200, detailHomes: 200, detail: 8},
	},
	{
		name:  "remote-sources",
		why:   "cold light plans over LXP wrappers with 500us per request: buffer fills and source round trips set the clock",
		nodes: 1, cacheBytes: 64 << 20, sessions: 160,
		mix: [3]float64{0.15, 0.7, 0.15}, classShare: [3]float64{0, 0, 1},
		families: []family{
			{name: "rel-rows", class: classCold, fresh: true, weight: 1, text: relFresh},
			{name: "web-hits", class: classCold, fresh: true, weight: 1, text: webFresh},
			{name: "xml-picks", class: classCold, fresh: true, weight: 1, text: xmlFresh},
		},
		bump: true, remote: true,
		data: dataSizes{homes: 160, schools: 0, zips: 16},
	},
	{
		name:  "fleet-mixed",
		why:   "3-node proxy fleet, 70% warm / 20% subsumed / 10% cold opens: routing, L2, semantic and speculative tiers work",
		nodes: 3, cacheBytes: 64 << 20, sessions: 270,
		mix: [3]float64{0.5, 0.3, 0.2}, classShare: [3]float64{0.7, 0.2, 0.1},
		families: append(append(warmViews(), semanticViews()...),
			family{name: "by-school", class: classCold, fresh: true, weight: 1, text: bySchoolFresh}),
		restore: true,
		data:    dataSizes{homes: 48, schools: 24, zips: 8},
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// session is one scripted client session of a round.
type session struct {
	family  int // index into spec.families
	persona int // index into personas
	variant int // script variant (0 for deep-drill, whose script is fixed)
	node    int // which node the client dials
}

// scriptKey identifies one distinct (view answer, script) pair — the
// unit the oracle is computed for.
type scriptKey struct{ family, persona, variant int }

func (s session) key() scriptKey { return scriptKey{s.family, s.persona, s.variant} }

// script returns the persona script for a key. Script seeds depend only
// on the key, so the oracle covers every session of every seed.
func (k scriptKey) script() []workload.Step {
	return workload.PersonaScript(personas[k.persona], regions, int64(1000*k.family+10*k.persona+k.variant+1))
}

// quotas splits n into integer parts proportional to w by the largest
// remainder method, so the composition of a session list is the same
// for every seed and only the order changes.
func quotas(n int, w []float64) []int {
	var sum float64
	for _, x := range w {
		sum += x
	}
	out := make([]int, len(w))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(w))
	left := n
	for i, x := range w {
		exact := float64(n) * x / sum
		out[i] = int(exact)
		left -= out[i]
		rems[i] = rem{i, exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for i := 0; i < left; i++ {
		out[rems[i%len(rems)].i]++
	}
	return out
}

// sessionList builds the seed-determined session list of a workload:
// exact quotas per (family, persona) cell, script variants and order
// drawn from the seed, nodes dealt round-robin per family so every view
// is dialed equally often at each node.
func (sp *spec) sessionList(seed int64, n int) []session {
	cells := make([]float64, 0, len(sp.families)*len(personas))
	classWeight := [3]float64{}
	for _, f := range sp.families {
		classWeight[f.class] += f.weight
	}
	for _, f := range sp.families {
		share := sp.classShare[f.class] * f.weight / classWeight[f.class]
		for p := range personas {
			cells = append(cells, share*sp.mix[p])
		}
	}
	r := rand.New(rand.NewSource(seed))
	var list []session
	for cell, q := range quotas(n, cells) {
		fam, p := cell/len(personas), cell%len(personas)
		for i := 0; i < q; i++ {
			s := session{family: fam, persona: p}
			if personas[p] != "deep-drill" {
				s.variant = r.Intn(scriptVariants)
			}
			list = append(list, s)
		}
	}
	r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	next := make([]int, len(sp.families))
	for i := range list {
		list[i].node = next[list[i].family] % sp.nodes
		next[list[i].family]++
	}
	return list
}

// listHash fingerprints a session list (determinism tests, run record).
func listHash(list []session) string {
	h := fnv.New64a()
	for _, s := range list {
		fmt.Fprintf(h, "%d.%d.%d.%d;", s.family, s.persona, s.variant, s.node)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
