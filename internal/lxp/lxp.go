// Package lxp implements the Lean XML fragment Protocol of Section 4:
// the two-command protocol (get_root, fill) by which a buffer component
// retrieves XML fragments — open trees with holes — from a wrapper at
// the wrapper's preferred granularity.
//
//	get_root(URI) → hole[id]
//	fill(hole[id]) → [T]   (a list of trees, possibly containing holes)
//
// The protocol is deliberately liberal: a fill result may interleave
// holes with elements at arbitrary positions, enabling early return of
// partial results. Two well-formedness rules guarantee progress
// (Section 4): a non-empty result must not consist only of holes, and
// no two holes may be adjacent. ValidateFill enforces them.
//
// The package provides the Server interface implemented by wrappers, an
// accounting decorator, and a TCP transport (length-prefixed JSON) so a
// wrapper can run in a different process, as in the refined VXD
// architecture of Fig. 7.
package lxp

import (
	"fmt"
	"strconv"

	"mix/internal/metrics"
	"mix/internal/xmltree"
)

// Server is the wrapper side of LXP. Implementations must be safe for
// concurrent calls: the TCP transport dispatches the requests of one
// connection concurrently, and several buffers may share one Server.
type Server interface {
	// GetRoot establishes a session for the document named by uri and
	// returns the identifier of the root hole.
	GetRoot(uri string) (holeID string, err error)
	// Fill (partially) explores the part of the source represented by
	// the hole and returns the list of trees it stands for. Sub-holes
	// in the result carry fresh identifiers the server can resolve
	// later.
	Fill(holeID string) ([]*xmltree.Tree, error)
}

// BatchServer is implemented by servers that can fill several holes in
// one protocol round trip:
//
//	fill_many([id…]) → {id: [T], …}
//
// Each hole's result obeys the same well-formedness rules as a single
// fill (callers apply ValidateFill per hole). Single-hole Fill remains
// the compatibility baseline: a buffer only batches when told to, and
// FillMany degrades to per-hole Fill against servers that lack the
// extension.
type BatchServer interface {
	Server
	// FillMany fills every listed hole, returning the results keyed by
	// hole identifier. A missing key means the hole stands for nothing
	// (the empty fill).
	FillMany(holeIDs []string) (map[string][]*xmltree.Tree, error)
}

// FillMany fills the listed holes through srv: in one round trip when
// srv implements BatchServer, hole-by-hole otherwise. It is the helper
// buffers (and the wire server) call so batching is purely an
// optimization, never a compatibility requirement.
func FillMany(srv Server, holeIDs []string) (map[string][]*xmltree.Tree, error) {
	if bs, ok := srv.(BatchServer); ok {
		return bs.FillMany(holeIDs)
	}
	out := make(map[string][]*xmltree.Tree, len(holeIDs))
	for _, id := range holeIDs {
		trees, err := srv.Fill(id)
		if err != nil {
			return nil, err
		}
		out[id] = trees
	}
	return out, nil
}

// ProtocolError reports a violation of the LXP well-formedness rules.
type ProtocolError struct {
	HoleID string
	Msg    string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("lxp: protocol violation filling %q: %s", e.HoleID, e.Msg)
}

// ValidateFill checks the progress rules of Section 4 on a fill result:
// (1) a non-empty *top-level* result must contain at least one non-hole
// element (otherwise the fill made no progress), and (2) no two holes
// are adjacent at any level of the returned fragment. Nested child
// lists consisting of a single hole are legal — the paper's Example 7
// returns fill(∅0) = [a[∅1]], an element whose whole child list is yet
// unexplored.
func ValidateFill(holeID string, trees []*xmltree.Tree) error {
	if err := validateSiblings(holeID, trees, true); err != nil {
		return err
	}
	for _, t := range trees {
		if err := validateFragment(holeID, t); err != nil {
			return err
		}
	}
	return nil
}

func validateFragment(holeID string, t *xmltree.Tree) error {
	if t.IsHole() {
		return nil
	}
	if err := validateSiblings(holeID, t.Children, false); err != nil {
		return err
	}
	for _, c := range t.Children {
		if err := validateFragment(holeID, c); err != nil {
			return err
		}
	}
	return nil
}

func validateSiblings(holeID string, list []*xmltree.Tree, topLevel bool) error {
	if len(list) == 0 {
		return nil
	}
	allHoles := true
	for i, t := range list {
		if t.IsHole() {
			if i > 0 && list[i-1].IsHole() {
				return &ProtocolError{HoleID: holeID, Msg: "two adjacent holes"}
			}
		} else {
			allHoles = false
		}
	}
	if topLevel && allHoles {
		return &ProtocolError{HoleID: holeID, Msg: "non-empty result consists only of holes"}
	}
	return nil
}

// Counting decorates a Server with message/byte/fill accounting. Bytes
// are measured as the serialized size of the exchanged payloads, a
// transport-independent proxy for wire cost.
type Counting struct {
	Inner    Server
	Counters *metrics.Counters
}

// NewCounting wraps srv with fresh counters.
func NewCounting(srv Server) *Counting {
	return &Counting{Inner: srv, Counters: &metrics.Counters{}}
}

// GetRoot implements Server.
func (c *Counting) GetRoot(uri string) (string, error) {
	c.Counters.Msgs.Add(1)
	c.Counters.Bytes.Add(int64(len(uri)))
	id, err := c.Inner.GetRoot(uri)
	c.Counters.Bytes.Add(int64(len(id)))
	return id, err
}

// Fill implements Server.
func (c *Counting) Fill(holeID string) ([]*xmltree.Tree, error) {
	c.Counters.Msgs.Add(1)
	c.Counters.Fills.Add(1)
	c.Counters.Bytes.Add(int64(len(holeID)))
	trees, err := c.Inner.Fill(holeID)
	for _, t := range trees {
		c.Counters.Bytes.Add(int64(xmltree.XMLSize(t)))
	}
	return trees, err
}

// FillMany implements BatchServer. When the inner server batches, the
// whole batch is one message carrying len(holeIDs) fills; otherwise it
// degrades to the counted per-hole path, so the counters always reflect
// what actually crossed the wire.
func (c *Counting) FillMany(holeIDs []string) (map[string][]*xmltree.Tree, error) {
	bs, ok := c.Inner.(BatchServer)
	if !ok {
		out := make(map[string][]*xmltree.Tree, len(holeIDs))
		for _, id := range holeIDs {
			trees, err := c.Fill(id)
			if err != nil {
				return nil, err
			}
			out[id] = trees
		}
		return out, nil
	}
	c.Counters.Msgs.Add(1)
	c.Counters.Fills.Add(int64(len(holeIDs)))
	for _, id := range holeIDs {
		c.Counters.Bytes.Add(int64(len(id)))
	}
	res, err := bs.FillMany(holeIDs)
	for _, trees := range res {
		for _, t := range trees {
			c.Counters.Bytes.Add(int64(xmltree.XMLSize(t)))
		}
	}
	return res, err
}

// maxGrowth caps how far ChunkAt grows a continuation: at most this
// many times the first fill.
const maxGrowth = 4

// ChunkAt is the granularity rule every chunked wrapper follows: a fill
// of a list at offset start returns min(max(n, start), 4n) items, where
// n (≥ 1) is the wrapper's first-fill size. A scan is therefore served
// in chunks of n, n, 2n, 4n, 4n, …: the first fill stays small, so the
// first answer costs what it always did, and a scan that keeps going
// pays a fraction of the serial round trips of fixed n-item fills,
// while no fill reads more than 4n items ahead of demand. The rule
// reads only the offset the hole id already carries, so wrappers stay
// stateless and hole ids unchanged.
func ChunkAt(n, start int) int {
	return min(max(n, start), maxGrowth*n)
}

// TreeServer is the simplest possible wrapper: it serves one in-memory
// tree with a configurable chunk size — a fill at child offset start
// returns ChunkAt(Chunk, start) children of the requested node followed
// by a continuation hole, and each child is returned *closed* when its
// subtree has at most InlineLimit nodes and as label[hole] otherwise
// (the "complete elements if their size does not exceed a certain
// limit" policy of Section 4).
//
// Hole identifiers are slash-separated child-index paths with a start
// offset: "0/2:5" names children 5… of the node at path [0,2].
type TreeServer struct {
	Tree *xmltree.Tree
	// Chunk is the number of children the first fill of a child list
	// returns; continuations grow by ChunkAt up to 4×Chunk (0 = all).
	Chunk int
	// InlineLimit is the maximum subtree size returned inline
	// (0 = always inline whole subtrees).
	InlineLimit int
}

// GetRoot implements Server. The uri is ignored: a TreeServer serves
// exactly one document.
func (s *TreeServer) GetRoot(string) (string, error) { return "root", nil }

// Fill implements Server. Hole identifiers are parsed and walked in
// one pass: the path prefix of a well-formed id is exactly the path
// string renderChildren needs, so nothing is re-serialized.
func (s *TreeServer) Fill(holeID string) ([]*xmltree.Tree, error) {
	if holeID == "root" {
		return []*xmltree.Tree{s.render(s.Tree, "")}, nil
	}
	node, rest, start, err := s.walkHoleID(holeID)
	if err != nil {
		return nil, err
	}
	if start > len(node.Children) {
		return nil, fmt.Errorf("lxp: stale hole id %q", holeID)
	}
	return s.renderChildren(node, rest, start), nil
}

// walkHoleID parses "p/q/…:start", walking the tree as the child-index
// path is decoded, and returns the node it names, the path prefix
// (id[:colon]) and the start offset.
func (s *TreeServer) walkHoleID(id string) (node *xmltree.Tree, rest string, start int, err error) {
	colon := -1
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == ':' {
			colon = i
			break
		}
	}
	if colon < 0 {
		return nil, "", 0, fmt.Errorf("lxp: malformed hole id %q", id)
	}
	if start, err = strconv.Atoi(id[colon+1:]); err != nil || start < 0 {
		return nil, "", 0, fmt.Errorf("lxp: malformed hole id %q", id)
	}
	rest = id[:colon]
	node = s.Tree
	if rest == "" {
		return node, rest, start, nil
	}
	cur, has := 0, false
	for i := 0; i <= len(rest); i++ {
		if i == len(rest) || rest[i] == '/' {
			if !has {
				return nil, "", 0, fmt.Errorf("lxp: malformed hole id %q", id)
			}
			node = node.Child(cur)
			if node == nil {
				return nil, "", 0, fmt.Errorf("lxp: stale hole id %q", id)
			}
			cur, has = 0, false
			continue
		}
		c := rest[i]
		if c < '0' || c > '9' {
			return nil, "", 0, fmt.Errorf("lxp: malformed hole id %q", id)
		}
		cur = cur*10 + int(c-'0')
		has = true
	}
	return node, rest, start, nil
}

// FillMany implements BatchServer (trivially, since the tree is local:
// the point is that the *wire* pays one round trip for the batch).
func (s *TreeServer) FillMany(holeIDs []string) (map[string][]*xmltree.Tree, error) {
	out := make(map[string][]*xmltree.Tree, len(holeIDs))
	for _, id := range holeIDs {
		trees, err := s.Fill(id)
		if err != nil {
			return nil, err
		}
		out[id] = trees
	}
	return out, nil
}

// render returns t either inline (small enough) or as label[hole].
// Inline subtrees alias the served tree — fills are read-only, and
// every consumer (wire encoding, buffer grafting) only reads them — so
// no copy is made.
func (s *TreeServer) render(t *xmltree.Tree, path string) *xmltree.Tree {
	if t.IsLeaf() {
		return t
	}
	if s.InlineLimit <= 0 || t.Size() <= s.InlineLimit {
		return t
	}
	return elemHole(t.Label, path+":0")
}

// elemHole builds label[hole[id]] — the shape render mints for every
// non-inlined child — from a single allocation.
func elemHole(label, id string) *xmltree.Tree {
	h := &struct {
		elem xmltree.Tree
		ec   [1]*xmltree.Tree
		hole xmltree.Tree
		hc   [1]*xmltree.Tree
		leaf xmltree.Tree
	}{}
	h.leaf.Label = id
	h.hc[0] = &h.leaf
	h.hole.Label = xmltree.HoleLabel
	h.hole.Children = h.hc[:]
	h.ec[0] = &h.hole
	h.elem.Label = label
	h.elem.Children = h.ec[:]
	return &h.elem
}

func (s *TreeServer) renderChildren(node *xmltree.Tree, path string, start int) []*xmltree.Tree {
	end := len(node.Children)
	if s.Chunk > 0 {
		end = min(end, start+ChunkAt(s.Chunk, start))
	}
	n := end - start
	if end < len(node.Children) {
		n++
	}
	out := make([]*xmltree.Tree, 0, n)
	for i := start; i < end; i++ {
		childPath := strconv.Itoa(i)
		if path != "" {
			childPath = path + "/" + childPath
		}
		out = append(out, s.render(node.Children[i], childPath))
	}
	if end < len(node.Children) {
		out = append(out, xmltree.Hole(path+":"+strconv.Itoa(end)))
	}
	return out
}

func pathString(path []int) string {
	if len(path) == 0 {
		return ""
	}
	b := make([]byte, 0, 3*len(path))
	for i, p := range path {
		if i > 0 {
			b = append(b, '/')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return string(b)
}

func parseHoleID(id string) (path []int, start int, err error) {
	colon := -1
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == ':' {
			colon = i
			break
		}
	}
	if colon < 0 {
		return nil, 0, fmt.Errorf("lxp: malformed hole id %q", id)
	}
	if start, err = strconv.Atoi(id[colon+1:]); err != nil || start < 0 {
		return nil, 0, fmt.Errorf("lxp: malformed hole id %q", id)
	}
	rest := id[:colon]
	if rest == "" {
		return nil, start, nil
	}
	cur := 0
	has := false
	for i := 0; i <= len(rest); i++ {
		if i == len(rest) || rest[i] == '/' {
			if !has {
				return nil, 0, fmt.Errorf("lxp: malformed hole id %q", id)
			}
			path = append(path, cur)
			cur, has = 0, false
			continue
		}
		c := rest[i]
		if c < '0' || c > '9' {
			return nil, 0, fmt.Errorf("lxp: malformed hole id %q", id)
		}
		cur = cur*10 + int(c-'0')
		has = true
	}
	return path, start, nil
}
