// Package wrapper implements LXP wrappers for the source kinds of the
// VXD architecture (Fig. 1): the relational wrapper of Section 4
// (hole ids of the form db.table.row, n tuples in the first fill), a
// paged "web site" wrapper modeling HTML sources that ship
// page-at-a-time, and a plain XML document wrapper (lxp.TreeServer
// re-exported through the same constructor surface for symmetry).
// Every chunked wrapper grows its continuation fills along a scan by
// the one rule lxp.ChunkAt, and every wrapper's root fill carries the
// first chunk of each child list along the root's first-child spine,
// down to the first closed node (see lxp.TreeServer), so a first answer
// costs get_root and one fill.
package wrapper

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"mix/internal/lxp"
	"mix/internal/relational"
	"mix/internal/xmltree"
)

// Relational exposes a relational.DB over LXP as Section 4 prescribes,
// with continuation fills that grow along a scan (lxp.ChunkAt,
// n = ChunkRows):
//
//	fill(hole[db])            → db[table1[row0[…], …, row(n-1)[…], hole[db.table1.n]],
//	                               table2[hole[db.table2]], …]
//	fill(hole[db.t])          → t[row0[…], …, row(n-1)[…], hole[db.t.n]]
//	fill(hole[db.t.j])        → rows j…j+m-1 and hole[db.t.(j+m)],
//	                            m = lxp.ChunkAt(n, j)
//
// so a scan of t is served n, n, 2n, 4n, 4n, … rows at a time. The
// database fill follows the root-fill rule every wrapper keeps (see
// lxp.TreeServer): it ships the first table as the table fill would
// return it, so a first row costs get_root and one fill. Database
// and table names may contain dots: a hole id is read as the database
// name, then a table name matched whole, then an optional row offset.
// A continuation never stops at row j when t.j is itself a table name
// (it returns the extra rows instead), so no id names two things.
//
// The wrapper returns complete tuples — it never has to answer
// attribute-level navigation (the buffer serves those locally).
type Relational struct {
	DB *relational.DB
	// ChunkRows is the number of tuples the first fill of a table
	// returns (the paper's n); continuations grow to at most 4n.
	// Values < 1 are treated as 1.
	ChunkRows int
}

// GetRoot implements lxp.Server. The URI must name the wrapped
// database.
func (w *Relational) GetRoot(uri string) (string, error) {
	if uri != w.DB.Name {
		return "", fmt.Errorf("wrapper: this wrapper serves %q, not %q", w.DB.Name, uri)
	}
	return w.DB.Name, nil
}

func (w *Relational) chunk() int {
	if w.ChunkRows < 1 {
		return 1
	}
	return w.ChunkRows
}

// Fill implements lxp.Server.
func (w *Relational) Fill(holeID string) ([]*xmltree.Tree, error) {
	if holeID == w.DB.Name {
		// Database level: the schema, the first table's first chunk and
		// one hole for every other table.
		root := xmltree.Elem(w.DB.Name)
		for i, t := range w.DB.TableNames() {
			table := xmltree.Elem(t, xmltree.Hole(w.DB.Name+"."+t))
			if i == 0 {
				rows, err := w.rows(t, 0)
				if err != nil {
					return nil, err
				}
				table.Children = rows
			}
			root.Children = append(root.Children, table)
		}
		return []*xmltree.Tree{root}, nil
	}
	rest, ok := strings.CutPrefix(holeID, w.DB.Name+".")
	if !ok {
		return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
	}
	if w.DB.Table(rest) != nil {
		// Table level: the first n tuples plus a continuation hole.
		return w.rows(rest, 0)
	}
	dot := strings.LastIndexByte(rest, '.')
	if dot < 0 || w.DB.Table(rest[:dot]) == nil {
		return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
	}
	j, err := strconv.Atoi(rest[dot+1:])
	if err != nil || j < 0 {
		return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
	}
	return w.rows(rest[:dot], j)
}

// rows returns lxp.ChunkAt(ChunkRows, j) tuples of table starting at
// row j (fewer at the end of the table), as row elements with one
// attribute child per column, plus a trailing hole if rows remain.
func (w *Relational) rows(table string, j int) ([]*xmltree.Tree, error) {
	cur, err := w.DB.OpenCursor(table, j)
	if err != nil {
		return nil, err
	}
	cols := cur.Cols()
	fetched := cur.FetchN(lxp.ChunkAt(w.chunk(), j))
	numRows := w.DB.Table(table).NumRows()
	for cur.Pos() < numRows && w.DB.Table(table+"."+strconv.Itoa(cur.Pos())) != nil {
		fetched = append(fetched, cur.Fetch())
	}
	out := make([]*xmltree.Tree, 0, len(fetched)+1)
	for i, r := range fetched {
		row := xmltree.Elem(fmt.Sprintf("row%d", j+i))
		for c, v := range r {
			row.Children = append(row.Children, xmltree.Text(cols[c], v))
		}
		out = append(out, row)
	}
	if cur.Pos() < numRows {
		out = append(out, xmltree.Hole(fmt.Sprintf("%s.%s.%d", w.DB.Name, table, cur.Pos())))
	}
	return out, nil
}

// Web simulates a paged web source (the HTML-XML wrapper of Fig. 1):
// a catalog whose items are only obtainable a page at a time, the way
// a wrapper scrapes consecutive result pages of a web site. A fill of
// hole page:p fetches lxp.ChunkAt(1, p) consecutive pages of PageSize
// items — so a scan reads 1, 1, 2, 4, 4, … pages per fill — and ends in
// a hole for the next page not yet returned; every page fetched is
// billed as a source query. The root hole is page:0, whose fill ships
// the catalog element over page 0: the root-fill rule every wrapper
// keeps (see lxp.TreeServer), since items arrive closed. Returned items
// alias the catalog (fills are read-only, as in lxp.TreeServer), so the
// catalog must not change while the wrapper serves it.
type Web struct {
	// Name is the source URI this wrapper answers for.
	Name string
	// Catalog is the full underlying document: root[item…].
	Catalog *xmltree.Tree
	// PageSize is the number of items per page (≥ 1).
	PageSize int

	// Pages counts page fetches (pages read from the backing site).
	Pages atomic.Int64
}

// GetRoot implements lxp.Server.
func (w *Web) GetRoot(uri string) (string, error) {
	if uri != w.Name {
		return "", fmt.Errorf("wrapper: this wrapper serves %q, not %q", w.Name, uri)
	}
	return "page:0", nil
}

// Fill implements lxp.Server.
func (w *Web) Fill(holeID string) ([]*xmltree.Tree, error) {
	var page int
	if _, err := fmt.Sscanf(holeID, "page:%d", &page); err != nil || page < 0 {
		return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
	}
	size := max(w.PageSize, 1)
	items := w.Catalog.Children
	start := page * size
	if start > len(items) {
		return nil, fmt.Errorf("wrapper: stale hole id %q", holeID)
	}
	next := page + lxp.ChunkAt(1, page)
	end := min(next*size, len(items))
	w.Pages.Add(int64(max((end-start+size-1)/size, 1)))
	kids := make([]*xmltree.Tree, 0, end-start+1)
	kids = append(kids, items[start:end]...)
	if end < len(items) {
		kids = append(kids, xmltree.Hole(fmt.Sprintf("page:%d", next)))
	}
	if page == 0 {
		// The first fill resolves the root element itself.
		return []*xmltree.Tree{xmltree.Elem(w.Catalog.Label, kids...)}, nil
	}
	return kids, nil
}

// XML returns an LXP server over a plain XML document with the given
// chunking parameters — the generic document wrapper.
func XML(doc *xmltree.Tree, chunk, inlineLimit int) lxp.Server {
	return &lxp.TreeServer{Tree: doc, Chunk: chunk, InlineLimit: inlineLimit}
}
