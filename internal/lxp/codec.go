package lxp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"mix/internal/wirejson"
	"mix/internal/xmltree"
)

// LXP codec: fill responses carry whole subtree forests, so a generic
// encoding/json path would pay one intermediate struct, one conversion
// and several small allocations per node, per direction. The encoder
// writes response JSON directly from []*xmltree.Tree, and the decoder
// builds trees straight from the payload — arena nodes, interned labels.
// The bytes on the wire are exactly what encoding/json renders for the
// request/response structs (field order, omitempty holes, "trees":null
// vs [], sorted "many" keys, HTML-safe string escaping). The decoder
// follows wirejson's rule: it parses by hand only that canonical shape
// and hands any other payload to encoding/json whole, so its result is
// always json.Unmarshal's. The codec tests and fuzzers hold both
// directions to encoding/json.
// leanResponse is a response at the tree level, before (encode) or
// after (decode) the wire. hasTrees distinguishes a fill's "trees":[]
// from the "trees":null of every other op.
type leanResponse struct {
	rid      uint64 // echo of the request's rid; 0 = absent
	hole     string
	trees    []*xmltree.Tree
	hasTrees bool
	many     map[string][]*xmltree.Tree
	err      string
}

// --- encoding ---------------------------------------------------------------

// encodeString appends the JSON encoding of s, byte for byte what
// json.Marshal renders (see wirejson.AppendString). Growing first keeps
// a plain string's append inside the buffer's own capacity.
func encodeString(buf *bytes.Buffer, s string) {
	buf.Grow(len(s) + 2)
	buf.Write(wirejson.AppendString(buf.AvailableBuffer(), s))
}

// encodeUint appends n in decimal, as json.Marshal renders a uint64.
func encodeUint(buf *bytes.Buffer, n uint64) {
	var tmp [20]byte
	buf.Write(strconv.AppendUint(tmp[:0], n, 10))
}

// encodeTree appends the wire encoding of t:
// {"l":label} for leaves, {"l":label,"c":[…]} otherwise.
func encodeTree(buf *bytes.Buffer, t *xmltree.Tree) {
	buf.WriteString(`{"l":`)
	encodeString(buf, t.Label)
	if len(t.Children) > 0 {
		buf.WriteString(`,"c":[`)
		for i, c := range t.Children {
			if i > 0 {
				buf.WriteByte(',')
			}
			encodeTree(buf, c)
		}
		buf.WriteString(`]`)
	}
	buf.WriteByte('}')
}

func encodeForest(buf *bytes.Buffer, trees []*xmltree.Tree) {
	buf.WriteByte('[')
	for i, t := range trees {
		if i > 0 {
			buf.WriteByte(',')
		}
		encodeTree(buf, t)
	}
	buf.WriteByte(']')
}

// encodeResponse appends the response JSON: fields rid, hole, trees,
// many, error in that order, with encoding/json's omitempty rules.
func encodeResponse(buf *bytes.Buffer, lr *leanResponse) {
	buf.WriteByte('{')
	if lr.rid != 0 {
		buf.WriteString(`"rid":`)
		encodeUint(buf, lr.rid)
		buf.WriteByte(',')
	}
	if lr.hole != "" {
		buf.WriteString(`"hole":`)
		encodeString(buf, lr.hole)
		buf.WriteByte(',')
	}
	buf.WriteString(`"trees":`)
	if lr.hasTrees {
		encodeForest(buf, lr.trees)
	} else {
		buf.WriteString("null")
	}
	if len(lr.many) > 0 { // mirror encoding/json omitempty: empty maps vanish
		buf.WriteString(`,"many":{`)
		ids := make([]string, 0, len(lr.many))
		for id := range lr.many {
			ids = append(ids, id)
		}
		sortStrings(ids)
		for i, id := range ids {
			if i > 0 {
				buf.WriteByte(',')
			}
			encodeString(buf, id)
			buf.WriteByte(':')
			encodeForest(buf, lr.many[id])
		}
		buf.WriteByte('}')
	}
	if lr.err != "" {
		buf.WriteString(`,"error":`)
		encodeString(buf, lr.err)
	}
	buf.WriteByte('}')
}

// sortStrings is an allocation-free insertion sort: many maps are
// small, and json.Marshal sorts map keys, so we must too.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// writeResponse writes lr as one frame on w.
func writeResponse(w io.Writer, lr *leanResponse) error {
	f := wirejson.GetFrame()
	defer f.Release()
	encodeResponse(&f.Buffer, lr)
	return f.Send(w, maxFrame)
}

// --- decoding ---------------------------------------------------------------

// decoder parses the canonical payloads encodeResponse and
// encodeRequest write: fixed key order, no whitespace. The first thing
// out of that shape sets bad, after which every method is a no-op, and
// the caller decodes the payload with encoding/json instead. Trees are
// built from an arena with interned labels, on either path.
type decoder struct {
	b       []byte
	i       int
	bad     bool
	depth   int // open {/[ nesting, bounded like encoding/json
	in      *xmltree.Interner
	arena   *xmltree.Arena
	scratch []*xmltree.Tree
	unq     []byte // the last escaped string, unquoted
}

// maxDecodeDepth is encoding/json's nesting bound: a payload too deep
// for it is refused on the lean path too, and the recursion cannot
// exhaust the stack.
const maxDecodeDepth = 10000

// lit consumes s if the payload continues with it.
func (d *decoder) lit(s string) bool {
	if d.bad || len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *decoder) expect(s string) {
	if !d.lit(s) {
		d.bad = true
	}
}

// open consumes the opening bracket of an object or array.
func (d *decoder) open(s string) {
	d.expect(s)
	if d.depth++; d.depth > maxDecodeDepth {
		d.bad = true
	}
}

func (d *decoder) close(s string) {
	d.expect(s)
	d.depth--
}

// next reports whether element n of the open list or object follows,
// consuming its separator; at the closing byte end it closes the
// container and reports false.
func (d *decoder) next(end string, n int) bool {
	if d.lit(end) {
		d.depth--
		return false
	}
	if n > 0 {
		d.expect(",")
	}
	return !d.bad
}

// done reports whether the whole payload parsed.
func (d *decoder) done() bool {
	return !d.bad && d.i == len(d.b)
}

// str scans a string; labels (intern set) are interned, so a repeated
// label costs no allocation, escaped or not.
func (d *decoder) str(intern bool) string {
	if d.bad {
		return ""
	}
	raw, j, ok := wirejson.PlainString(d.b, d.i)
	if !ok {
		d.unq, j, ok = wirejson.Unquote(d.unq[:0], d.b, d.i)
		raw = d.unq
	}
	if d.bad = !ok; d.bad {
		return ""
	}
	d.i = j
	if intern {
		return d.in.InternBytes(raw)
	}
	return string(raw)
}

func (d *decoder) uint() uint64 {
	n, j, ok := wirejson.PlainUint(d.b, d.i)
	d.i, d.bad = j, !ok
	return n
}

// decodeResponse parses one response payload. in may be nil (labels
// are then plain strings); arena may be nil (a throwaway arena is used
// then). A long-lived caller such as Client passes a persistent arena
// so node chunks amortize across many small frames.
// The result is written into lr (reset first) so short-lived callers
// can keep it on the stack.
func decodeResponse(payload []byte, in *xmltree.Interner, arena *xmltree.Arena, lr *leanResponse) error {
	if arena == nil {
		arena = new(xmltree.Arena)
	}
	d := decoder{b: payload, in: in, arena: arena}
	*lr = leanResponse{}
	if d.response(lr); d.done() {
		return nil
	}
	var resp response
	if err := json.Unmarshal(payload, &resp); err != nil {
		*lr = leanResponse{}
		return fmt.Errorf("lxp: malformed response: %w", err)
	}
	*lr = leanResponse{rid: resp.Rid, hole: resp.Hole, err: resp.Err}
	if resp.Trees != nil {
		lr.trees, lr.hasTrees = d.wireTrees(resp.Trees, false), true
	}
	if resp.Many != nil {
		lr.many = make(map[string][]*xmltree.Tree, len(resp.Many))
		for id, ws := range resp.Many {
			lr.many[id] = d.wireTrees(ws, false)
		}
	}
	return nil
}

// response parses the shape encodeResponse writes.
func (d *decoder) response(lr *leanResponse) {
	d.open("{")
	if d.lit(`"rid":`) {
		lr.rid = d.uint()
		d.expect(",")
	}
	if d.lit(`"hole":`) {
		lr.hole = d.str(false)
		d.expect(",")
	}
	d.expect(`"trees":`)
	if !d.lit("null") {
		lr.trees, lr.hasTrees = d.trees(false), true
	}
	if d.lit(`,"many":`) {
		lr.many = map[string][]*xmltree.Tree{}
		d.open("{")
		prev := ""
		for n := 0; d.next("}", n); n++ {
			id := d.str(false)
			if n > 0 && id <= prev { // json.Marshal sorts map keys
				d.bad = true
			}
			d.expect(":")
			lr.many[id], prev = d.trees(false), id
		}
	}
	if d.lit(`,"error":`) {
		lr.err = d.str(false)
	}
	d.close("}")
}

// trees parses [tree,…] into an arena-backed slice, nil when empty,
// collecting the elements on the shared scratch stack.
// holeKids marks the child list of a hole element: its label is the
// hole identifier — unique for the session, so interning it would only
// grow the interner's table without ever deduplicating anything.
func (d *decoder) trees(holeKids bool) []*xmltree.Tree {
	mark := len(d.scratch)
	d.open("[")
	for n := 0; d.next("]", n); n++ {
		d.scratch = append(d.scratch, d.tree(holeKids))
	}
	out := d.arena.Children(d.scratch[mark:])
	d.scratch = d.scratch[:mark]
	return out
}

// tree parses {"l":label} or {"l":label,"c":[…]} into an arena node.
func (d *decoder) tree(holeChild bool) *xmltree.Tree {
	d.open("{")
	d.expect(`"l":`)
	t := d.arena.NewNode(d.str(!holeChild))
	if d.lit(`,"c":`) {
		t.Children = d.trees(t.Label == xmltree.HoleLabel)
	}
	d.close("}")
	return t
}

// wireTrees converts trees encoding/json decoded to the nodes and
// labels trees builds.
func (d *decoder) wireTrees(ws []wireTree, holeKids bool) []*xmltree.Tree {
	mark := len(d.scratch)
	for _, w := range ws {
		label := w.L
		if !holeKids {
			label = d.in.Intern(label)
		}
		t := d.arena.NewNode(label)
		t.Children = d.wireTrees(w.C, label == xmltree.HoleLabel)
		d.scratch = append(d.scratch, t)
	}
	out := d.arena.Children(d.scratch[mark:])
	d.scratch = d.scratch[:mark]
	return out
}

// readResponse reads one response frame from r and decodes it. Decoded
// trees never alias the frame: labels are interned or copied, nodes
// live in the arena.
func readResponse(r io.Reader, in *xmltree.Interner, arena *xmltree.Arena, lr *leanResponse) error {
	return wirejson.ReadFrame(r, maxFrame, func(p []byte) error {
		return decodeResponse(p, in, arena, lr)
	})
}

// --- requests ---------------------------------------------------------------

// encodeRequest writes req exactly as json.Marshal renders the request
// struct: field order rid, op, uri, id, ids, with omitempty semantics.
func encodeRequest(buf *bytes.Buffer, req request) {
	buf.WriteByte('{')
	if req.Rid != 0 {
		buf.WriteString(`"rid":`)
		encodeUint(buf, req.Rid)
		buf.WriteByte(',')
	}
	buf.WriteString(`"op":`)
	encodeString(buf, req.Op)
	if req.URI != "" {
		buf.WriteString(`,"uri":`)
		encodeString(buf, req.URI)
	}
	if req.ID != "" {
		buf.WriteString(`,"id":`)
		encodeString(buf, req.ID)
	}
	if len(req.IDs) > 0 {
		buf.WriteString(`,"ids":[`)
		for i, id := range req.IDs {
			if i > 0 {
				buf.WriteByte(',')
			}
			encodeString(buf, id)
		}
		buf.WriteByte(']')
	}
	buf.WriteByte('}')
}

// writeRequest writes req as one frame on w.
func writeRequest(w io.Writer, req request) error {
	f := wirejson.GetFrame()
	defer f.Release()
	encodeRequest(&f.Buffer, req)
	return f.Send(w, maxFrame)
}

// decodeRequest parses one request payload: by hand in the shape
// encodeRequest writes, through encoding/json otherwise.
func decodeRequest(payload []byte) (request, error) {
	d := decoder{b: payload}
	var req request
	if d.request(&req); d.done() {
		return req, nil
	}
	var wire request
	if err := json.Unmarshal(payload, &wire); err != nil {
		return request{}, fmt.Errorf("lxp: malformed request: %w", err)
	}
	return wire, nil
}

// request parses the shape encodeRequest writes.
func (d *decoder) request(req *request) {
	d.open("{")
	if d.lit(`"rid":`) {
		req.Rid = d.uint()
		d.expect(",")
	}
	d.expect(`"op":`)
	req.Op = d.str(false)
	if d.lit(`,"uri":`) {
		req.URI = d.str(false)
	}
	if d.lit(`,"id":`) {
		req.ID = d.str(false)
	}
	if d.lit(`,"ids":`) {
		req.IDs = []string{}
		d.open("[")
		for n := 0; d.next("]", n); n++ {
			req.IDs = append(req.IDs, d.str(false))
		}
	}
	d.close("}")
}

// readRequest reads one request frame from r. Decoded strings never
// alias the frame.
func readRequest(r io.Reader, req *request) error {
	return wirejson.ReadFrame(r, maxFrame, func(p []byte) error {
		rq, err := decodeRequest(p)
		*req = rq
		return err
	})
}
