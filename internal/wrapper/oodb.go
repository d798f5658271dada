package wrapper

import (
	"fmt"
	"strconv"
	"strings"

	"mix/internal/lxp"
	"mix/internal/objectdb"
	"mix/internal/xmltree"
)

// OODB is the OODB-XML wrapper of Fig. 1: it exposes an object database
// over LXP as the virtual document
//
//	dbname[ class1[ obj… ], class2[ obj… ], … ]
//
// where each object renders as
//
//	<Class> oid[…] field1[…] field2[…] … </Class>
//
// Scalar fields render inline; *references render as holes* that fill
// to the referenced object on traversal. An object graph with cycles
// therefore exports an infinite virtual XML view — which is exactly
// what the navigation-driven architecture is for: the client explores
// as deep as it cares to, and only that much is ever computed.
//
// Hole identifiers:
//
//	ext:CLASS:J   — extent of CLASS starting at index J; the fill
//	                returns lxp.ChunkAt(ChunkObjects, J) members, so an
//	                extent scan is served n, n, 2n, 4n, 4n, … at a time
//	obj:OID       — the object OID (fills to its full element)
type OODB struct {
	DB *objectdb.DB
	// ChunkObjects is the number of extent members the first fill of
	// an extent returns (≥ 1); continuations grow to at most 4×.
	ChunkObjects int
}

// GetRoot implements lxp.Server; the URI must name the database.
func (w *OODB) GetRoot(uri string) (string, error) {
	if uri != w.DB.Name {
		return "", fmt.Errorf("wrapper: this wrapper serves %q, not %q", w.DB.Name, uri)
	}
	return "root", nil
}

func (w *OODB) chunk() int {
	if w.ChunkObjects < 1 {
		return 1
	}
	return w.ChunkObjects
}

// Fill implements lxp.Server.
func (w *OODB) Fill(holeID string) ([]*xmltree.Tree, error) {
	switch {
	case holeID == "root":
		root := xmltree.Elem(w.DB.Name)
		for _, c := range w.DB.Classes() {
			root.Children = append(root.Children,
				xmltree.Elem(c, xmltree.Hole("ext:"+c+":0")))
		}
		return []*xmltree.Tree{root}, nil

	case strings.HasPrefix(holeID, "ext:"):
		rest := strings.TrimPrefix(holeID, "ext:")
		class, idxStr, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
		}
		j, err := strconv.Atoi(idxStr)
		if err != nil || j < 0 {
			return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
		}
		ext := w.DB.Extent(class)
		if j > len(ext) {
			return nil, fmt.Errorf("wrapper: stale hole id %q", holeID)
		}
		end := min(j+lxp.ChunkAt(w.chunk(), j), len(ext))
		out := make([]*xmltree.Tree, 0, end-j+1)
		for _, oid := range ext[j:end] {
			el, err := w.object(oid)
			if err != nil {
				return nil, err
			}
			out = append(out, el)
		}
		if end < len(ext) {
			out = append(out, xmltree.Hole(fmt.Sprintf("ext:%s:%d", class, end)))
		}
		return out, nil

	case strings.HasPrefix(holeID, "obj:"):
		el, err := w.object(objectdb.OID(strings.TrimPrefix(holeID, "obj:")))
		if err != nil {
			return nil, err
		}
		return []*xmltree.Tree{el}, nil

	default:
		return nil, fmt.Errorf("wrapper: malformed hole id %q", holeID)
	}
}

// object renders one object: scalars inline, references as holes.
func (w *OODB) object(oid objectdb.OID) (*xmltree.Tree, error) {
	o, err := w.DB.Get(oid)
	if err != nil {
		return nil, err
	}
	el := xmltree.Elem(o.Class, xmltree.Text("oid", string(o.OID)))
	for _, f := range o.Fields {
		el.Children = append(el.Children, w.field(f.Name, f.Value))
	}
	return el, nil
}

func (w *OODB) field(name string, v objectdb.Value) *xmltree.Tree {
	switch {
	case v.IsScalar():
		return xmltree.Text(name, v.Scalar)
	case v.IsRef():
		return xmltree.Elem(name, xmltree.Hole("obj:"+string(v.Ref)))
	default: // list
		f := xmltree.Elem(name)
		for i, item := range v.List {
			f.Children = append(f.Children, w.field(fmt.Sprintf("item%d", i), item))
		}
		return f
	}
}
