package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"mix/internal/algebra"
	"mix/internal/buffer"
	"mix/internal/cluster"
	"mix/internal/nav"
	"mix/internal/predict"
	"mix/internal/regioncache"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmas"
	"mix/internal/xmltree"
)

// The layer pass times calls into each layer's public, long-lived entry
// points from outside, on inputs taken from the workload generators.
// Every measurement is fixed work: a constant number of calls, repeated
// layerReps times, reporting the median repetition.
const layerReps = 5

type layerPass struct {
	tr   *tracer
	vals map[string]float64
}

// per times n calls of f, layerReps times over, and returns the median
// time per call in ns. Each repetition is one span named by the metric.
func (lp *layerPass) per(metric string, n int, f func()) float64 {
	reps := make([]float64, layerReps)
	for r := range reps {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		end := time.Now()
		lp.tr.layerSpan(metric, start, end)
		reps[r] = float64(end.Sub(start)) / float64(n)
	}
	return median(reps)
}

// p50 times n single calls of f and returns their median in ns.
func (lp *layerPass) p50(metric string, n int, f func()) float64 {
	samples := make([]float64, n)
	start := time.Now()
	for i := range samples {
		t := time.Now()
		f()
		samples[i] = float64(time.Since(t))
	}
	lp.tr.layerSpan(metric, start, time.Now())
	sort.Float64s(samples)
	return percentile(samples, 50)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer pass: %v", err))
	}
}

// firstChild navigates an open session to the root's first child.
func firstChild(c *vxdp.Client) nav.ID {
	root, err := c.Root()
	must(err)
	child, err := c.Down(root)
	must(err)
	return child
}

// runLayerPass measures every time-valued per-layer metric.
func runLayerPass(tr *tracer) map[string]float64 {
	lp := &layerPass{tr: tr, vals: map[string]float64{}}
	lp.codec()
	lp.live()
	lp.proxy()
	lp.regionCache()
	lp.compile()
	lp.sourceSide()
	lp.small()
	return lp.vals
}

// codec: vxdp.WriteFrame / ReadFrame on the four frames of a d and an f
// command.
func (lp *layerPass) codec() {
	frames := []any{
		vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpDown, ID: 4711}},
		vxdp.Response{NavResult: vxdp.NavResult{OK: true, ID: 4712}},
		vxdp.Request{Cmd: vxdp.Cmd{Op: vxdp.OpFetch, ID: 4712}},
		vxdp.Response{NavResult: vxdp.NavResult{OK: true, Label: "med_home"}},
	}
	encoded := make([][]byte, len(frames))
	for i, f := range frames {
		var b bytes.Buffer
		must(vxdp.WriteFrame(&b, f))
		encoded[i] = b.Bytes()
	}
	const n = 20000
	encode := func() {
		for _, f := range frames {
			must(vxdp.WriteFrame(io.Discard, f))
		}
	}
	var rd bytes.Reader
	decode := func() {
		for i, e := range encoded {
			rd.Reset(e)
			if i%2 == 0 {
				var req vxdp.Request
				must(vxdp.ReadFrame(&rd, &req))
			} else {
				var resp vxdp.Response
				must(vxdp.ReadFrame(&rd, &resp))
			}
		}
	}
	lp.vals["vxdp.encode_ns_per_frame"] = lp.per("vxdp.encode_ns_per_frame", n, encode) / float64(len(frames))
	lp.vals["vxdp.decode_ns_per_frame"] = lp.per("vxdp.decode_ns_per_frame", n, decode) / float64(len(frames))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		encode()
		decode()
	}
	runtime.ReadMemStats(&m1)
	lp.vals["vxdp.allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(2*n*len(frames))
}

// live: a booted single node with one warm view — ping, a warm fetch,
// and a peer-style region_get.
func (lp *layerPass) live() {
	sp := specByName("warm-browse")
	src, err := buildSources(sp, false)
	must(err)
	defer src.stop()
	f, err := bootFleet(sp, src)
	must(err)
	defer func() { must(f.halt()) }()
	query := sp.families[0].text
	c, err := vxdp.Dial(f.members[0].addr)
	must(err)
	defer c.Close()
	must(c.Open(query))
	_, err = nav.Materialize(c)
	must(err)
	child := firstChild(c)
	const n = 4000
	ping := lp.p50("vxdp.ping_rtt_us", n, func() {
		_, err := c.Ping()
		must(err)
	})
	fetch := lp.p50("server.warm_cmd_minus_ping_us", n, func() {
		_, err := c.Fetch(child)
		must(err)
	})
	lp.vals["vxdp.ping_rtt_us"] = ping / 1e3
	lp.vals["server.warm_cmd_minus_ping_us"] = (fetch - ping) / 1e3

	// The region's key as a peer would spell it: the view's name and
	// fingerprint from a probe compile, the generation from a ping.
	probe, err := src.uncached()
	must(err)
	res, err := probe.Query(query)
	must(err)
	rk := res.RegionKey()
	gen, err := c.Ping()
	must(err)
	key := vxdp.RegionKey{Gen: gen, Registry: rk.Registry, Name: rk.Name, Fingerprint: rk.Fingerprint}
	lp.vals["cluster.region_get_us"] = lp.p50("cluster.region_get_us", 400, func() {
		reg, err := c.RegionGet(key)
		must(err)
		if reg == nil {
			panic("bench: layer pass: region_get missed a warm view")
		}
	}) / 1e3
}

// proxy: the same warm fetch on a 3-node proxy fleet, once dialing the
// view's owner and once dialing another node. The view is left only
// partly explored, so the semantic tier cannot short-circuit the
// routed open and the second session really is forwarded.
func (lp *layerPass) proxy() {
	sp := specByName("fleet-mixed")
	src, err := buildSources(sp, false)
	must(err)
	defer src.stop()
	f, err := bootFleet(sp, src)
	must(err)
	defer func() { must(f.halt()) }()
	query := sp.families[0].text
	probe, err := src.uncached()
	must(err)
	res, err := probe.Query(query)
	must(err)
	owner := f.members[0].node.Owner(res.CacheKey())
	fetchP50 := func(m *member, metric string) float64 {
		c, err := vxdp.Dial(m.addr)
		must(err)
		defer c.Close()
		must(c.Open(query))
		child := firstChild(c)
		return lp.p50(metric, 4000, func() {
			_, err := c.Fetch(child)
			must(err)
		})
	}
	var owned, proxied float64
	for _, m := range f.members {
		if m.addr == owner {
			owned = fetchP50(m, "cluster.proxy_overhead_us")
		}
	}
	for _, m := range f.members {
		if m.addr != owner {
			before := m.srv.Stats().Cluster.Proxied
			proxied = fetchP50(m, "cluster.proxy_overhead_us")
			if m.srv.Stats().Cluster.Proxied-before < 4000 {
				panic("bench: layer pass: the session meant to be proxied was served locally")
			}
			break
		}
	}
	lp.vals["cluster.proxy_overhead_us"] = (proxied - owned) / 1e3
}

// regionCache: the read path, the populate path, export/merge, and a
// semantic lookup against a complete superset.
func (lp *layerPass) regionCache() {
	sp := specByName("warm-browse")
	homes, _ := workload.HomesSchools(sp.data.homes, sp.data.schools, sp.data.zips, dataSeed)
	nodes := float64(homes.Size())
	walk := func(doc nav.Document) int {
		cd := &countDoc{Document: doc}
		_, err := nav.Materialize(cd)
		must(err)
		return cd.n
	}
	var navs int
	fill := lp.per("regioncache.fill_nav_ns", 20, func() {
		navs = walk(regioncache.New(0).Wrap("bench", "fp", 1, nav.NewTreeDoc(homes)))
	})
	rc := regioncache.New(0)
	walk(rc.Wrap("bench", "fp", 1, nav.NewTreeDoc(homes)))
	hit := lp.per("regioncache.hit_nav_ns", 20, func() {
		walk(rc.Wrap("bench", "fp", 1, nav.NewTreeDoc(homes)))
	})
	lp.vals["regioncache.fill_nav_ns"] = fill / float64(navs)
	lp.vals["regioncache.hit_nav_ns"] = hit / float64(navs)

	entry := rc.Entry("bench", "fp", 1)
	var reg *regioncache.Region
	lp.vals["regioncache.export_ns_per_node"] = lp.per("regioncache.export_ns_per_node", 50, func() {
		reg = entry.Export()
	}) / nodes
	lp.vals["regioncache.merge_ns_per_node"] = lp.per("regioncache.merge_ns_per_node", 50, func() {
		regioncache.New(0).Entry("bench", "fp", 1).Merge(reg)
	}) / nodes

	src, err := buildSources(sp, false)
	must(err)
	cached, err := src.factory(regioncache.New(0))
	must(err)
	super, err := cached.Query(sp.families[0].text)
	must(err)
	_, err = nav.Materialize(super.Document())
	must(err)
	sub := semanticViews()[0]
	k := 0
	var lookup time.Duration
	const n = 100
	for rep := 0; rep < n; rep++ {
		k++
		res, err := cached.Query(sub.query(k))
		must(err)
		t := time.Now()
		warm := res.SemanticWarm()
		end := time.Now()
		lookup += end.Sub(t)
		lp.tr.layerSpan("regioncache.semantic_lookup_us", t, end)
		if !warm {
			panic("bench: layer pass: semantic lookup missed a complete superset")
		}
	}
	lp.vals["regioncache.semantic_lookup_us"] = float64(lookup) / n / 1e3
}

// compile: the query pipeline and the uncached engine, on cold-compute's
// join+groupBy plans and data.
func (lp *layerPass) compile() {
	sp := specByName("cold-compute")
	src, err := buildSources(sp, false)
	must(err)
	m, err := src.uncached()
	must(err)
	k := 0
	lp.vals["mediator.query_us"] = lp.per("mediator.query_us", 200, func() {
		k++
		_, err := m.Query(sp.families[0].query(k))
		must(err)
	}) / 1e3
	text := sp.families[0].query(1)
	lp.vals["xmas.parse_us"] = lp.per("xmas.parse_us", 500, func() {
		_, err := xmas.Parse(text)
		must(err)
	}) / 1e3

	wb := specByName("warm-browse")
	wsrc, err := buildSources(wb, false)
	must(err)
	wm, err := wsrc.uncached()
	must(err)
	canon := func(q string) algebra.Op {
		res, err := wm.Query(q)
		must(err)
		c, _, ok := regioncache.Canonical(res.Plan)
		if !ok {
			panic("bench: layer pass: plan has no canonical form")
		}
		return c
	}
	superPlan, subPlan := canon(wb.families[0].text), canon(semanticViews()[0].query(1))
	lp.vals["algebra.contains_us"] = lp.per("algebra.contains_us", 500, func() {
		if _, _, ok := algebra.Contains(superPlan, subPlan); !ok {
			panic("bench: layer pass: containment check failed on a subsumed plan")
		}
	}) / 1e3

	var navs int
	walk := lp.per("core.nav_ns", 10, func() {
		res, err := m.Query(text)
		must(err)
		cd := &countDoc{Document: res.Document()}
		_, err = nav.Materialize(cd)
		must(err)
		navs = cd.n
	})
	lp.vals["core.nav_ns"] = walk / float64(navs)
	lp.vals["core.first_answer_us"] = lp.per("core.first_answer_us", 50, func() {
		res, err := m.Query(text)
		must(err)
		doc := res.Document()
		root, err := doc.Root()
		must(err)
		child, err := doc.Down(root)
		must(err)
		_, err = doc.Fetch(child)
		must(err)
	}) / 1e3
	lp.vals["eager.materialize_ms"] = lp.per("eager.materialize_ms", 10, func() {
		_, err := m.QueryEager(text)
		must(err)
	}) / 1e6
}

// sourceSide: buffer, LXP transport and the three wrappers, with no
// injected delay.
func (lp *layerPass) sourceSide() {
	sp := specByName("remote-sources")
	homes, _ := workload.HomesSchools(sp.data.homes, sp.data.schools, sp.data.zips, dataSeed)
	var navs int
	walk := lp.per("buffer.nav_ns", 10, func() {
		b, err := buffer.New(wrapper.XML(homes, lxpChunk, 8), "homes")
		must(err)
		b.Batch = mediatorOptions().LXPBatch
		cd := &countDoc{Document: b}
		_, err = nav.Materialize(cd)
		must(err)
		navs = cd.n
	})
	lp.vals["buffer.nav_ns"] = walk / float64(navs)

	s, err := startLXP("xmlSrc", "homes", wrapper.XML(homes, lxpChunk, 8), 0)
	must(err)
	defer s.stop()
	lp.vals["lxp.fill_rtt_us"] = lp.p50("lxp.fill_rtt_us", 2000, func() {
		_, err := s.client.Fill("root")
		must(err)
	}) / 1e3

	rel := &wrapper.Relational{DB: relationalHomes(homes), ChunkRows: lxpChunk}
	web := &wrapper.Web{Name: "catalog", Catalog: workload.Books("web", sp.data.homes, dataSeed), PageSize: lxpChunk}
	xml := wrapper.XML(homes, lxpChunk, 8)
	for _, w := range []struct {
		metric, hole string
		fill         func(string) ([]*xmltree.Tree, error)
	}{
		{"wrapper.relational_fill_us", "rdb.homes.10", rel.Fill},
		{"wrapper.web_fill_us", "page:1", web.Fill},
		{"wrapper.xml_fill_us", "root", xml.Fill},
	} {
		lp.vals[w.metric] = lp.per(w.metric, 2000, func() {
			_, err := w.fill(w.hole)
			must(err)
		}) / 1e3
	}
}

// small: ring lookups, the successor model, and the tree codec.
func (lp *layerPass) small() {
	ring, err := cluster.NewRing([]string{"127.0.0.1:7081", "127.0.0.1:7082", "127.0.0.1:7083"}, 0)
	must(err)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = cluster.RouteKey("query", fmt.Sprintf("%032x", i*7919))
	}
	i := 0
	lp.vals["cluster.ring_owner_ns"] = lp.per("cluster.ring_owner_ns", 100000, func() {
		i++
		_ = ring.Owner(keys[i%len(keys)])
	})

	model := predict.NewModel(0)
	key := predict.Key{Generation: 1, Registry: 2, Name: "query", Fingerprint: "fp"}
	lp.vals["predict.observe_ns"] = lp.per("predict.observe_ns", 100000, func() {
		i++
		model.Observe(key, i%regions, i%regions+1)
	})
	lp.vals["predict.predict_ns"] = lp.per("predict.predict_ns", 100000, func() {
		i++
		model.Predict(key, i%regions)
	})

	sp := specByName("cold-compute")
	tree := workload.DetailedHomes(sp.data.detailHomes, sp.data.detail, sp.data.zips, dataSeed)
	nodes := float64(tree.Size())
	lp.vals["xmltree.marshal_ns_per_node"] = lp.per("xmltree.marshal_ns_per_node", 50, func() {
		_ = xmltree.MarshalXML(tree)
	}) / nodes
	// Fingerprints are cached per node, so every call gets a fresh copy.
	const copies = 50
	fresh := make([]*xmltree.Tree, copies*layerReps)
	for j := range fresh {
		fresh[j] = tree.Clone()
	}
	i = 0
	lp.vals["xmltree.fingerprint_ns_per_node"] = lp.per("xmltree.fingerprint_ns_per_node", copies, func() {
		_ = fresh[i].Fingerprint()
		i++
	}) / nodes
}
