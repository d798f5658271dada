package mediator

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mix/internal/lxp"
	"mix/internal/regioncache"
	"mix/internal/relational"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmltree"
)

var errWrapperDown = errors.New("wrapper down")

// failingWrapper is a scripted LXP wrapper: it serves inner until its
// k-th request — get_root, fill and fill_many alike — and answers that
// request and every later one with errWrapperDown until heal is called
// (k = 0 never fails). It records every request it saw.
type failingWrapper struct {
	inner lxp.Server
	k     int

	mu     sync.Mutex
	seen   []string
	healed bool
}

func (f *failingWrapper) step(req string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen = append(f.seen, req)
	if f.k > 0 && len(f.seen) >= f.k && !f.healed {
		return errWrapperDown
	}
	return nil
}

func (f *failingWrapper) heal() {
	f.mu.Lock()
	f.healed = true
	f.mu.Unlock()
}

func (f *failingWrapper) requests() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.seen...)
}

func (f *failingWrapper) GetRoot(uri string) (string, error) {
	if err := f.step("get_root"); err != nil {
		return "", err
	}
	return f.inner.GetRoot(uri)
}

func (f *failingWrapper) Fill(id string) ([]*xmltree.Tree, error) {
	if err := f.step("fill " + id); err != nil {
		return nil, err
	}
	return f.inner.Fill(id)
}

func (f *failingWrapper) FillMany(ids []string) (map[string][]*xmltree.Tree, error) {
	if err := f.step("fill_many " + strings.Join(ids, " ")); err != nil {
		return nil, err
	}
	return lxp.FillMany(f.inner, ids)
}

// Views shaped like the benchmark's rel-rows and xml-picks families.
const (
	relRowsView = `CONSTRUCT <rows> $R {$R} </rows> {}
WHERE relSrc rdb.homes._ $R AND $R beds._ $B AND $B >= "3"`
	xmlPicksView = `CONSTRUCT <picks> $H {$H} </picks> {}
WHERE xmlSrc homes.home $H AND $H price._ $P AND $P < "550000"`
)

// sweepSources are the two sources of the sweep: a relational homes
// table behind wrapper.Relational and a homes document behind
// wrapper.XML, with what each exports as a plain tree for the eager
// oracle.
func sweepSources() (rel *wrapper.Relational, relDoc *xmltree.Tree, xml lxp.Server, homes *xmltree.Tree) {
	homes, _ = workload.HomesSchools(24, 0, 4, 9)
	db := relational.NewDB("rdb")
	t := db.Create("homes", "addr", "zip", "price", "beds")
	table := xmltree.Elem("homes")
	for i, h := range homes.Children {
		vals := []string{h.Find("addr").TextContent(), h.Find("zip").TextContent(),
			h.Find("price").TextContent(), fmt.Sprint(1 + i%5)}
		t.MustInsert(vals...)
		row := xmltree.Elem(fmt.Sprintf("row%d", i))
		for c, v := range vals {
			row.Children = append(row.Children, xmltree.Text(t.Cols[c], v))
		}
		table.Children = append(table.Children, row)
	}
	return &wrapper.Relational{DB: db, ChunkRows: 4}, xmltree.Elem("rdb", table), wrapper.XML(homes, 4, 8), homes
}

// TestLXPFailureSweep lets the wrapper behind a rel-rows-shaped and an
// xml-picks-shaped view fail from its k-th request on, for every k up
// to a full scan's request count, on a mediator with a region cache,
// batched fills and the scan lookahead. The k-th request ranges over
// get_root, the root fill (which carries the first chunk), continuation
// fills and lookahead fills. Each scan must return the wrapper's error,
// never an answer cut short; once the wrapper heals, both views on the
// same catalog must equal internal/eager.
func TestLXPFailureSweep(t *testing.T) {
	rel, relDoc, xml, homes := sweepSources()
	oracle := New(DefaultOptions())
	oracle.RegisterTree("relSrc", relDoc)
	oracle.RegisterTree("xmlSrc", homes)
	views := map[string]string{"rel-rows": relRowsView, "xml-picks": xmlPicksView}
	want := map[string]string{}
	for name, text := range views {
		ans, err := oracle.QueryEager(text)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = xmltree.MarshalXML(ans)
	}
	sources := []struct {
		name, uri string
		srv       lxp.Server
	}{{"relSrc", "rdb", rel}, {"xmlSrc", "homes", xml}}
	failing := map[string]string{"rel-rows": "relSrc", "xml-picks": "xmlSrc"}

	// catalog builds a mediator whose source src fails from its k-th
	// request on; the other source never fails.
	catalog := func(src string, k int) (*Mediator, *failingWrapper) {
		opts := DefaultOptions()
		opts.LXPBatch = 8
		m := New(opts)
		m.SetRegionCache(regioncache.New(0))
		var fw *failingWrapper
		for _, s := range sources {
			srv := s.srv
			if s.name == src {
				fw = &failingWrapper{inner: srv, k: k}
				srv = fw
			}
			if _, err := m.RegisterLXP(s.name, srv, s.uri); err != nil {
				t.Fatal(err)
			}
		}
		return m, fw
	}
	scan := func(m *Mediator, text string) (string, error) {
		res, err := m.Query(text)
		if err != nil {
			return "", err
		}
		got, err := res.Materialize()
		if err != nil {
			return "", err
		}
		return xmltree.MarshalXML(got), nil
	}

	for name, text := range views {
		src := failing[name]
		m, fw := catalog(src, 0)
		if got, err := scan(m, text); err != nil || got != want[name] {
			t.Fatalf("%s: calibration scan = %v\n%s\nwant\n%s", name, err, got, want[name])
		}
		reqs := fw.requests()
		full := len(reqs)
		if full < 4 || reqs[0] != "get_root" || !strings.HasPrefix(reqs[1], "fill ") {
			t.Fatalf("%s: requests of a full scan: %q", name, reqs)
		}
		if st := m.BufferStats()[src]; st.PrefetchFills == 0 {
			t.Fatalf("%s: a full scan sent no lookahead fill (%+v), so no k fails one", name, st)
		}

		for k := 1; k <= full; k++ {
			m, fw := catalog(src, k)
			_, err := scan(m, text)
			if !errors.Is(err, errWrapperDown) {
				t.Fatalf("%s, failing from request %d of %d (%q): scan returned %v, want the wrapper's error",
					name, k, full, fw.requests(), err)
			}
			fw.heal()
			for other, otherText := range views {
				got, err := scan(m, otherText)
				if err != nil || got != want[other] {
					t.Fatalf("%s failed from request %d of %d; then %s after it healed = %v\n%s\nwant\n%s",
						name, k, full, other, err, got, want[other])
				}
			}
		}
	}
}
