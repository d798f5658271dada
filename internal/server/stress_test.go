package server_test

// Cache correctness under concurrency: N sessions navigate the same
// view while the source registry is mutated mid-flight. The invariant
// is "invalidation, never staleness" — whatever a session explores must
// be byte-identical to what an *uncached* engine over some registry
// state would have answered, a state no older than the last update that
// returned before the session opened; a blend of two states is a
// failure. Run with -race (the CI stress step does).

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/vxdp"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

func TestRegistryMutationStress(t *testing.T) {
	// Every update installs a dataset never seen before, so an answer
	// names the update it came from.
	const versions = 32
	type dataset struct {
		homes, schools *xmltree.Tree
		want           string
	}
	data := make([]dataset, versions)
	expected := map[string]int64{}
	for v := range data {
		homes, schools := workload.HomesSchools(8+2*(v%3), 8+2*(v%3), 3, int64(11*v+5))
		m := mediator.New(mediator.DefaultOptions())
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		res, err := m.Query(joinQuery)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := res.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		want := xmltree.MarshalXML(tree)
		data[v] = dataset{homes, schools, want}
		if _, dup := expected[want]; dup {
			t.Fatal("test needs distinguishable datasets")
		}
		expected[want] = int64(v)
	}

	var version atomic.Int64
	factory := func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		d := data[version.Load()]
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", d.homes)
		m.RegisterTree("schoolsSrc", d.schools)
		return m, nil
	}
	srv, addr := serve(t, factory)

	// The mutator swaps in the next dataset, repeatedly, while sessions
	// are mid-exploration; mutations counts the updates that returned.
	stop := make(chan struct{})
	var mutations atomic.Int64
	var mutWG sync.WaitGroup
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for i := int64(1); i < versions; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			srv.Update(func() { version.Store(i) })
			mutations.Add(1)
		}
	}()

	const sessions = 8
	const opensPerSession = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions*opensPerSession)
	fail := func(err error) { errs <- err }
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opensPerSession; i++ {
				c, err := vxdp.Dial(addr)
				if err != nil {
					fail(err)
					return
				}
				after := mutations.Load()
				if err := c.Open(joinQuery); err != nil {
					c.Close()
					fail(err)
					return
				}
				tree, err := nav.Materialize(c)
				c.Close()
				if err != nil {
					fail(err)
					return
				}
				got := xmltree.MarshalXML(tree)
				if v, ok := expected[got]; !ok {
					fail(&stale{got})
					return
				} else if v < after {
					fail(fmt.Errorf("session opened after update %d got the answer of version %d", after, v))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	mutWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if mutations.Load() == 0 {
		t.Fatal("mutator never ran; the stress proved nothing")
	}
	if st := srv.Stats(); st.Cache == nil || st.Cache.Generation == 0 {
		t.Fatalf("registry mutations did not advance the cache generation: %+v", st.Cache)
	}
}

// TestUpdateReplay replays the interleaving that let an update land
// between an engine's data read and its cache-generation pin. The first
// engine's factory reads v0, has another goroutine swap in v1 and call
// Update, and waits for the update to move the generation before it
// pins — or, because Update must block until the pin, for a tenth of a
// second. Its session explores the whole view. The datasets have the
// same shape, so the cache cannot tell them apart: a session opened
// after Update returned must still get v1.
func TestUpdateReplay(t *testing.T) {
	data := []*xmltree.Tree{twoHomes("9100"), twoHomes("9200")}
	var version atomic.Int64
	var once sync.Once
	read := make(chan struct{})
	factory := func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		d := data[version.Load()]
		once.Do(func() {
			gen := rc.Generation()
			close(read)
			for deadline := time.Now().Add(100 * time.Millisecond); rc.Generation() == gen && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		})
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", d)
		return m, nil
	}
	srv, addr := serve(t, factory)
	updated := make(chan struct{})
	go func() {
		<-read
		srv.Update(func() { version.Store(1) })
		close(updated)
	}()
	want := make([]string, len(data))
	for v, d := range data {
		want[v] = semOracle(t, d, semSuperQ)
	}
	if got := semOpen(t, addr, semSuperQ); got != want[0] && got != want[1] {
		t.Fatalf("first session: %s", got)
	}
	<-updated
	if got := semOpen(t, addr, semSuperQ); got != want[1] {
		t.Fatalf("session opened after the update got %s, want %s", got, want[1])
	}
}

// TestUpdateWarmMemo is TestUpdateReplay with the query text already
// prepared on the catalog: finished sessions and a live one have opened
// it when Update runs, so the catalog's memo holds the text. A session
// opened after Update returns must still see the new data — the memo
// carries no generation or registry state, and Update retires the
// catalog that holds it, live session or not.
func TestUpdateWarmMemo(t *testing.T) {
	data := []*xmltree.Tree{twoHomes("9100"), twoHomes("9200")}
	var version atomic.Int64
	srv, addr := serve(t, func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", data[version.Load()])
		return m, nil
	})
	want := make([]string, len(data))
	for v, d := range data {
		want[v] = semOracle(t, d, semSuperQ)
	}
	active := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); srv.Stats().SessionsActive != n; {
			if time.Now().After(deadline) {
				t.Fatalf("sessions active = %d, want %d", srv.Stats().SessionsActive, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The second open is served by the first one's catalog: a memo hit.
	for range 2 {
		if got := semOpen(t, addr, semSuperQ); got != want[0] {
			t.Fatalf("before the update: %s", got)
		}
		active(0)
	}
	if st := srv.Stats(); st.Pool.Reused == 0 {
		t.Fatal("no open was served by the existing catalog")
	}
	// A live session, and one that has finished, on the catalog that
	// has prepared the text.
	live, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	parked, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*vxdp.Client{parked, live} {
		if err := c.Open(semSuperQ); err != nil {
			t.Fatal(err)
		}
	}
	parked.Close()
	active(1)

	srv.Update(func() { version.Store(1) })
	live.Close()
	for range 2 {
		if got := semOpen(t, addr, semSuperQ); got != want[1] {
			t.Fatalf("session opened after the update got %s, want %s", got, want[1])
		}
	}
	if st := srv.Stats(); st.Pool.Created != 2 {
		t.Fatalf("%d catalogs built, want exactly one fresh one after the update", st.Pool.Created)
	}
}

// TestUpdateReopenSameSession: a live session that reopens after Update
// sees the new data. The session's first open materialises the view on
// the catalog of v0; Update swaps in v1; the second open, on the same
// connection, must compile on the catalog of v1, not keep serving v0.
func TestUpdateReopenSameSession(t *testing.T) {
	data := []*xmltree.Tree{twoHomes("9100"), twoHomes("9200")}
	var version atomic.Int64
	srv, addr := serve(t, func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", data[version.Load()])
		return m, nil
	})
	want := make([]string, len(data))
	for v, d := range data {
		want[v] = semOracle(t, d, semSuperQ)
	}
	c, err := vxdp.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	materialize := func() string {
		t.Helper()
		if err := c.Open(semSuperQ); err != nil {
			t.Fatal(err)
		}
		tree, err := nav.Materialize(c)
		if err != nil {
			t.Fatal(err)
		}
		return xmltree.MarshalXML(tree)
	}
	if got := materialize(); got != want[0] {
		t.Fatalf("before the update: %s, want %s", got, want[0])
	}
	srv.Update(func() { version.Store(1) })
	if got := materialize(); got != want[1] {
		t.Fatalf("reopen after the update on the same session got %s, want %s", got, want[1])
	}
}

// twoHomes is a homes document of two homes with zip codes zip+"0" and
// zip+"1": datasets of one shape the cache cannot tell apart.
func twoHomes(zip string) *xmltree.Tree {
	return xmltree.Elem("homes",
		xmltree.Elem("home", xmltree.Text("zip", zip+"0")),
		xmltree.Elem("home", xmltree.Text("zip", zip+"1")))
}

type stale struct{ got string }

func (s *stale) Error() string {
	return "explored answer matches no registry state (stale or blended cache): " + s.got
}
