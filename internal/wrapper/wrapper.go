// Package wrapper implements LXP wrappers for the source kinds of the
// VXD architecture (Fig. 1): the relational wrapper of Section 4
// (hole ids of the form db.table.row, n tuples per fill), a paged
// "web site" wrapper modeling HTML sources that ship page-at-a-time,
// and a plain XML document wrapper (lxp.TreeServer re-exported through
// the same constructor surface for symmetry).
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

// Relational exposes a relational.DB over LXP exactly as Section 4
// prescribes:
//
//	fill(hole[db])            → db[table1[hole[db.table1]], …]
//	fill(hole[db.t])          → t[row0[…], …, row(n-1)[…], hole[db.t.n]]
//	fill(hole[db.t.j])        → rows j…j+n-1 and hole[db.t.(j+n)]
//
// The wrapper returns complete tuples — it never has to answer
// attribute-level navigation (the buffer serves those locally).
type Relational struct {
	DB *relational.DB
	// ChunkRows is the number of tuples per fill (the paper's n);
	// values < 1 are treated as 1.
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
	parts := strings.Split(holeID, ".")
	switch {
	case len(parts) == 1 && parts[0] == w.DB.Name:
		// Database level: the schema, one hole per table.
		root := xmltree.Elem(w.DB.Name)
		for _, t := range w.DB.TableNames() {
			root.Children = append(root.Children,
				xmltree.Elem(t, xmltree.Hole(w.DB.Name+"."+t)))
		}
		return []*xmltree.Tree{root}, nil

	case len(parts) == 2 && parts[0] == w.DB.Name:
		// Table level: first n tuples plus a continuation hole.
		return w.rows(parts[1], 0)

	case len(parts) == 3 && parts[0] == w.DB.Name:
		j, err := strconv.Atoi(parts[2])
		if err != nil || j < 0 {
			return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
		}
		return w.rows(parts[1], j)

	default:
		return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
	}
}

// rows returns up to ChunkRows tuples of table starting at row j, as
// row elements with one attribute child per column, plus a trailing
// hole if rows remain.
func (w *Relational) rows(table string, j int) ([]*xmltree.Tree, error) {
	cur, err := w.DB.OpenCursor(table, j)
	if err != nil {
		return nil, err
	}
	cols := cur.Cols()
	fetched := cur.FetchN(w.chunk())
	out := make([]*xmltree.Tree, 0, len(fetched)+1)
	for i, r := range fetched {
		row := xmltree.Elem(fmt.Sprintf("row%d", j+i))
		for c, v := range r {
			row.Children = append(row.Children, xmltree.Text(cols[c], v))
		}
		out = append(out, row)
	}
	if t := w.DB.Table(table); t != nil && cur.Pos() < t.NumRows() {
		out = append(out, xmltree.Hole(fmt.Sprintf("%s.%s.%d", w.DB.Name, table, cur.Pos())))
	}
	return out, nil
}

// Web simulates a paged web source (the HTML-XML wrapper of Fig. 1):
// a catalog whose items are only obtainable a page at a time, the way
// a wrapper scrapes consecutive result pages of a web site. Each fill
// of the item-level hole yields one page of PageSize items and a hole
// for the next page; the page fetch itself is billed as a source query.
type Web struct {
	// Name is the source URI this wrapper answers for.
	Name string
	// Catalog is the full underlying document: root[item…].
	Catalog *xmltree.Tree
	// PageSize is the number of items per page (≥ 1).
	PageSize int

	// Pages counts page fetches (fills that hit the backing site).
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
	size := w.PageSize
	if size < 1 {
		size = 1
	}
	w.Pages.Add(1)
	items := w.Catalog.Children
	start := page * size
	if start > len(items) {
		return nil, fmt.Errorf("wrapper: stale hole id %q", holeID)
	}
	end := start + size
	if end > len(items) {
		end = len(items)
	}
	var kids []*xmltree.Tree
	for _, it := range items[start:end] {
		kids = append(kids, it.Clone())
	}
	if end < len(items) {
		kids = append(kids, xmltree.Hole(fmt.Sprintf("page:%d", page+1)))
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
