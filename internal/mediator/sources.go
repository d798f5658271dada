package mediator

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"mix/internal/core"
	"mix/internal/lxp"
	"mix/internal/metrics"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/relational"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmltree"
)

// lxpBatch is how many holes one fill round trip of a declared LXP
// source coalesces (Options.LXPBatch).
const lxpBatch = 8

// Source is one source declaration of a command line, -src name=loc,
// with what every mediator built over it shares loaded once: the tree,
// the CSV database or the LXP connection.
type Source struct {
	Name string
	// Counters counts the LXP requests an rdb: or lxp:// source
	// answers, summed over every mediator the source is registered on:
	// mixd's per-source /metrics series. Nil for a tree.
	Counters *metrics.Counters

	tree   *xmltree.Tree     // a file or demo: source
	server func() lxp.Server // an LXP source's wrapper, once per mediator
	uri    string
	client *lxp.Client // an lxp:// source's connection
}

// OpenSource interprets a source declaration name=loc, where loc is
//
//	path.xml               a local XML document
//	lxp://host:port/uri    a remote LXP wrapper (cmd/lxpd)
//	rdb:csvdir             a CSV-backed relational database
//	demo:kind[:n]          a generated dataset (workload.Demo; n = 1000)
//
// It reads the document, loads the database or dials the wrapper now;
// nothing is sent over a dialed connection until a plan first
// navigates the source.
func OpenSource(decl string) (*Source, error) {
	name, loc, ok := strings.Cut(decl, "=")
	if !ok {
		return nil, fmt.Errorf("malformed -src %q (want name=location)", decl)
	}
	s := &Source{Name: name, uri: name}
	var err error
	if dir, ok := strings.CutPrefix(loc, "rdb:"); ok {
		db, err := relational.LoadCSVDir(name, dir)
		if err != nil {
			return nil, fmt.Errorf("source %s: %w", name, err)
		}
		// The Section 4 relational wrapper: n tuples in a table's first
		// fill, lxp.ChunkAt growth after that. Each mediator gets a
		// wrapper of its own over the shared database.
		s.Counters = &metrics.Counters{}
		s.server = func() lxp.Server {
			return &lxp.Counting{Inner: &wrapper.Relational{DB: db, ChunkRows: 50}, Counters: s.Counters}
		}
	} else if rest, ok := strings.CutPrefix(loc, "lxp://"); ok {
		hostport, uri, ok := strings.Cut(rest, "/")
		if !ok {
			return nil, fmt.Errorf("source %s: malformed LXP url %q (want lxp://host:port/uri)", name, loc)
		}
		if s.client, err = lxp.Dial(hostport); err != nil {
			return nil, fmt.Errorf("source %s: dialing %s: %w", name, hostport, err)
		}
		// The client multiplexes concurrent calls over its one
		// connection, so every mediator's buffer shares it, and its
		// counters, without queueing behind the others.
		counting := lxp.NewCounting(s.client)
		s.Counters, s.uri = counting.Counters, uri
		s.server = func() lxp.Server { return counting }
	} else if rest, ok := strings.CutPrefix(loc, "demo:"); ok {
		kind, size, _ := strings.Cut(rest, ":")
		n := 1000
		if size != "" {
			if n, err = strconv.Atoi(size); err != nil {
				return nil, fmt.Errorf("source %s: malformed demo size %q", name, size)
			}
		}
		if s.tree, err = workload.Demo(kind, name, n); err != nil {
			return nil, fmt.Errorf("source %s: %w", name, err)
		}
	} else {
		data, err := os.ReadFile(loc)
		if err != nil {
			return nil, fmt.Errorf("source %s: %w", name, err)
		}
		if s.tree, err = xmltree.UnmarshalXML(string(data)); err != nil {
			return nil, fmt.Errorf("source %s: parsing %s: %w", name, loc, err)
		}
	}
	return s, nil
}

// Catalog is a command line's source and view declarations: mixd
// builds a mediator over it for every source epoch, mixq builds one.
type Catalog struct {
	Sources []*Source
	// Counters holds the Counters of the LXP-backed sources by name.
	Counters map[string]*metrics.Counters
	views    [][2]string // name and XMAS text, in declaration order
}

// OpenCatalog opens every source srcs declares (OpenSource) and reads
// every view views declares, as name=path.xmas.
func OpenCatalog(srcs, views []string) (*Catalog, error) {
	c := &Catalog{Counters: map[string]*metrics.Counters{}}
	for _, decl := range views {
		name, path, ok := strings.Cut(decl, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -view %q (want name=path)", decl)
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", name, err)
		}
		c.views = append(c.views, [2]string{name, string(text)})
	}
	for _, decl := range srcs {
		s, err := OpenSource(decl)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Sources = append(c.Sources, s)
		if s.Counters != nil {
			c.Counters[s.Name] = s.Counters
		}
	}
	return c, nil
}

// Mediator builds a mediator over the catalog's sources and views:
// each tree through a TreeDoc of its own, each LXP source behind a
// buffer of its own (see RegisterLXP) that coalesces up to 8 holes per
// fill round trip. rc, when non-nil, is installed as its region cache
// before any source. navs, when non-nil, receives per source name a
// fresh counter of every navigation the mediator's plans make on it.
// With navs nil, Mediator is a server.Factory.
func (c *Catalog) Mediator(rc *regioncache.Cache, navs map[string]*metrics.Counters) (*Mediator, error) {
	m := New(Options{Engine: core.DefaultOptions(), LXPBatch: lxpBatch})
	// Cache before sources: it pins the catalog's cache generation.
	m.SetRegionCache(rc)
	for _, s := range c.Sources {
		var doc nav.Document
		if s.tree != nil {
			doc = nav.NewTreeDoc(s.tree)
		} else {
			doc = m.buffer(s.Name, s.server(), s.uri)
		}
		if navs != nil {
			navs[s.Name] = &metrics.Counters{}
			doc = &nav.CountingDoc{Doc: doc, Counters: navs[s.Name]}
		}
		m.RegisterSource(s.Name, doc)
	}
	for _, v := range c.views {
		if err := m.DefineView(v[0], v[1]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Close closes the connections of the catalog's lxp:// sources.
func (c *Catalog) Close() {
	for _, s := range c.Sources {
		if s.client != nil {
			s.client.Close()
		}
	}
}
