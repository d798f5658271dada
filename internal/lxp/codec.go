package lxp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

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
// vs [], sorted "many" keys, HTML-safe string escaping); the codec tests
// and fuzzers hold the two byte-identical against encoding/json.

var (
	bufGets atomic.Int64 // total pool fetches
	bufNews atomic.Int64 // fetches that had to allocate
)

// BufferPoolStats reports total pooled-buffer fetches and how many of
// them had to allocate, for /metrics; gets-news fetches were served by
// reuse.
func BufferPoolStats() (gets, news int64) {
	return bufGets.Load(), bufNews.Load()
}

// keepCap bounds what the frame pools retain; catalog-sized fills
// beyond it go back to the collector instead of staying pinned.
const keepCap = 1 << 20

var encBufPool = sync.Pool{New: func() any {
	bufNews.Add(1)
	return new(bytes.Buffer)
}}

// getEncBuf returns an empty pooled buffer with room reserved for the
// 4-byte length prefix sendFrame fills in.
func getEncBuf() *bytes.Buffer {
	bufGets.Add(1)
	buf := encBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	return buf
}

func putEncBuf(buf *bytes.Buffer) {
	if buf.Cap() <= keepCap {
		encBufPool.Put(buf)
	}
}

// sendFrame fills in the length prefix of the frame assembled in buf
// (by getEncBuf and an encoder) and hands it to w in one Write.
func sendFrame(w io.Writer, buf *bytes.Buffer) error {
	frame := buf.Bytes()
	if len(frame)-4 > maxFrame {
		return fmt.Errorf("lxp: frame of %d bytes exceeds limit", len(frame)-4)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

var payloadPool = sync.Pool{New: func() any {
	bufNews.Add(1)
	s := make([]byte, 0, 4096)
	return &s
}}

func getPayload(n int) *[]byte {
	bufGets.Add(1)
	p := payloadPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putPayload(p *[]byte) {
	if cap(*p) <= keepCap {
		payloadPool.Put(p)
	}
}

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
	buf := getEncBuf()
	defer putEncBuf(buf)
	encodeResponse(buf, lr)
	return sendFrame(w, buf)
}

// --- decoding ---------------------------------------------------------------

// decoder is a recursive-descent parser for the response grammar. It
// accepts any JSON object (unknown fields are skipped, fields may come
// in any order, whitespace is allowed) so it interoperates with peers
// that encode through encoding/json; trees are built from an arena with
// interned labels.
type decoder struct {
	b       []byte
	i       int
	depth   int // open {/[ nesting, bounded like encoding/json
	in      *xmltree.Interner
	arena   *xmltree.Arena
	scratch []*xmltree.Tree
}

// maxDecodeDepth mirrors encoding/json's nesting bound, so inputs the
// generic decoder rejects as too deep are rejected here too (and the
// recursion cannot exhaust the stack).
const maxDecodeDepth = 10000

var errBadJSON = fmt.Errorf("lxp: malformed response payload")

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
	if d.null() {
		// json.Unmarshal treats a null document as a no-op.
		d.ws()
		if d.i != len(d.b) {
			return errBadJSON
		}
		return nil
	}
	if err := d.object(func(key string) error {
		switch key {
		case "rid":
			if d.null() {
				return nil // null into a scalar field is a no-op
			}
			n, err := d.uint()
			lr.rid = n
			return err
		case "hole":
			if d.null() {
				return nil
			}
			s, err := d.str(false)
			lr.hole = s
			return err
		case "trees":
			if d.null() {
				return nil
			}
			trees, err := d.forest()
			lr.trees, lr.hasTrees = trees, true
			return err
		case "many":
			if d.null() {
				return nil
			}
			if lr.many == nil { // duplicate "many" keys merge, as encoding/json does
				lr.many = map[string][]*xmltree.Tree{}
			}
			return d.object(func(id string) error {
				if d.null() {
					lr.many[id] = []*xmltree.Tree{}
					return nil
				}
				trees, err := d.forest()
				lr.many[id] = trees
				return err
			})
		case "error":
			if d.null() {
				return nil
			}
			s, err := d.str(false)
			lr.err = s
			return err
		default:
			return d.skip()
		}
	}); err != nil {
		return err
	}
	d.ws()
	if d.i != len(d.b) {
		return errBadJSON
	}
	return nil
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) expect(c byte) error {
	d.ws()
	if d.i >= len(d.b) || d.b[d.i] != c {
		return errBadJSON
	}
	d.i++
	return nil
}

// null consumes a literal null if present.
func (d *decoder) null() bool {
	d.ws()
	if d.i+4 <= len(d.b) && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// object parses {"key":value,…}, calling field for every value; field
// must consume it.
func (d *decoder) object(field func(key string) error) error {
	if err := d.expect('{'); err != nil {
		return err
	}
	if d.depth++; d.depth > maxDecodeDepth {
		return errBadJSON
	}
	defer func() { d.depth-- }()
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == '}' {
		d.i++
		return nil
	}
	for {
		key, err := d.str(false)
		if err != nil {
			return err
		}
		if err := d.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		if d.i >= len(d.b) {
			return errBadJSON
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return errBadJSON
		}
	}
}

// str parses a JSON string. Plain strings are sliced (and, for
// interned labels, deduplicated without allocating on repeats);
// escaped strings fall back to encoding/json for exact semantics.
func (d *decoder) str(intern bool) (string, error) {
	if err := d.expect('"'); err != nil {
		return "", err
	}
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			raw := d.b[start:d.i]
			d.i++
			if intern && d.in != nil {
				return d.in.InternBytes(raw), nil
			}
			return string(raw), nil
		case c == '\\' || c < 0x20 || c >= 0x80:
			// Escapes, control bytes and non-ASCII (which json coerces
			// to valid UTF-8) take the exact-semantics path.
			return d.strSlow(start - 1)
		default:
			d.i++
		}
	}
	return "", errBadJSON
}

// strSlow re-scans an escaped string token from its opening quote and
// hands it to encoding/json.
func (d *decoder) strSlow(open int) (string, error) {
	i := open + 1
	for i < len(d.b) {
		switch d.b[i] {
		case '\\':
			i += 2
		case '"':
			var s string
			if err := json.Unmarshal(d.b[open:i+1], &s); err != nil {
				return "", errBadJSON
			}
			d.i = i + 1
			if d.in != nil {
				s = d.in.Intern(s)
			}
			return s, nil
		default:
			i++
		}
	}
	return "", errBadJSON
}

// uint parses a JSON number into a uint64 the way encoding/json does
// for a uint64 field: plain decimal digits only, no sign, fraction,
// exponent or overflow.
func (d *decoder) uint() (uint64, error) {
	d.ws()
	start := d.i
	var n uint64
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		digit := uint64(d.b[d.i] - '0')
		if n > (math.MaxUint64-digit)/10 {
			return 0, errBadJSON
		}
		n = n*10 + digit
		d.i++
	}
	if d.i == start || (d.i-start > 1 && d.b[start] == '0') {
		return 0, errBadJSON
	}
	return n, nil
}

// forest parses [tree,…]. The returned slice is arena-backed (collected
// through the shared scratch stack) and always non-nil, preserving the
// "trees":[] vs null distinction.
func (d *decoder) forest() ([]*xmltree.Tree, error) {
	if err := d.expect('['); err != nil {
		return nil, err
	}
	if d.depth++; d.depth > maxDecodeDepth {
		return nil, errBadJSON
	}
	defer func() { d.depth-- }()
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		return []*xmltree.Tree{}, nil
	}
	mark := len(d.scratch)
	for {
		t, err := d.tree(false)
		if err != nil {
			return nil, err
		}
		d.scratch = append(d.scratch, t)
		d.ws()
		if d.i >= len(d.b) {
			return nil, errBadJSON
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case ']':
			d.i++
			out := d.arena.Children(d.scratch[mark:])
			d.scratch = d.scratch[:mark]
			return out, nil
		default:
			return nil, errBadJSON
		}
	}
}

// tree parses one tree object into an arena-backed node. A null
// element decodes as a zero node, as encoding/json decodes a null
// slice element.
// holeChild marks the child of a hole element: its label is the hole
// identifier — unique for the session, so interning it would only grow
// the interner's table without ever deduplicating anything.
func (d *decoder) tree(holeChild bool) (*xmltree.Tree, error) {
	if d.null() {
		return d.arena.NewNode(""), nil
	}
	t := d.arena.NewNode("")
	mark := len(d.scratch)
	err := d.object(func(key string) error {
		switch key {
		case "l":
			if d.null() {
				return nil
			}
			s, err := d.str(!holeChild)
			t.Label = s
			return err
		case "c":
			d.scratch = d.scratch[:mark] // duplicate "c" keys: last wins
			if d.null() {
				return nil
			}
			if err := d.expect('['); err != nil {
				return err
			}
			if d.depth++; d.depth > maxDecodeDepth {
				return errBadJSON
			}
			defer func() { d.depth-- }()
			d.ws()
			if d.i < len(d.b) && d.b[d.i] == ']' {
				d.i++
				return nil
			}
			for {
				c, err := d.tree(t.Label == xmltree.HoleLabel)
				if err != nil {
					return err
				}
				d.scratch = append(d.scratch, c)
				d.ws()
				if d.i >= len(d.b) {
					return errBadJSON
				}
				switch d.b[d.i] {
				case ',':
					d.i++
				case ']':
					d.i++
					return nil
				default:
					return errBadJSON
				}
			}
		default:
			return d.skip()
		}
	})
	if err != nil {
		return nil, err
	}
	t.Children = d.arena.Children(d.scratch[mark:])
	d.scratch = d.scratch[:mark]
	return t, nil
}

// skip consumes one JSON value of any kind.
func (d *decoder) skip() error {
	d.ws()
	if d.i >= len(d.b) {
		return errBadJSON
	}
	switch c := d.b[d.i]; c {
	case '"':
		_, err := d.str(false)
		return err
	case '{':
		return d.object(func(string) error { return d.skip() })
	case '[':
		if err := d.expect('['); err != nil {
			return err
		}
		if d.depth++; d.depth > maxDecodeDepth {
			return errBadJSON
		}
		defer func() { d.depth-- }()
		d.ws()
		if d.i < len(d.b) && d.b[d.i] == ']' {
			d.i++
			return nil
		}
		for {
			if err := d.skip(); err != nil {
				return err
			}
			d.ws()
			if d.i >= len(d.b) {
				return errBadJSON
			}
			switch d.b[d.i] {
			case ',':
				d.i++
			case ']':
				d.i++
				return nil
			default:
				return errBadJSON
			}
		}
	default: // number, true, false, null
		start := d.i
		for d.i < len(d.b) {
			switch d.b[d.i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				if d.i == start {
					return errBadJSON
				}
				return nil
			default:
				d.i++
			}
		}
		if d.i == start {
			return errBadJSON
		}
		return nil
	}
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
	buf := getEncBuf()
	defer putEncBuf(buf)
	encodeRequest(buf, req)
	return sendFrame(w, buf)
}

// decodeRequest parses one request payload with the same tolerance as
// decodeResponse: any field order, whitespace, unknown fields skipped,
// null fields ignored.
func decodeRequest(payload []byte) (request, error) {
	d := decoder{b: payload}
	var req request
	if d.null() {
		d.ws()
		if d.i != len(d.b) {
			return req, errBadJSON
		}
		return req, nil
	}
	if err := d.object(func(key string) error {
		switch key {
		case "rid":
			if d.null() {
				return nil
			}
			n, err := d.uint()
			req.Rid = n
			return err
		case "op":
			if d.null() {
				return nil
			}
			s, err := d.str(false)
			req.Op = s
			return err
		case "uri":
			if d.null() {
				return nil
			}
			s, err := d.str(false)
			req.URI = s
			return err
		case "id":
			if d.null() {
				return nil
			}
			s, err := d.str(false)
			req.ID = s
			return err
		case "ids":
			if d.null() {
				return nil
			}
			ids, err := d.stringArray()
			req.IDs = ids
			return err
		default:
			return d.skip()
		}
	}); err != nil {
		return req, err
	}
	d.ws()
	if d.i != len(d.b) {
		return req, errBadJSON
	}
	return req, nil
}

// stringArray parses ["s",…]; null elements decode as "", matching
// encoding/json's []string semantics.
func (d *decoder) stringArray() ([]string, error) {
	if err := d.expect('['); err != nil {
		return nil, err
	}
	if d.depth++; d.depth > maxDecodeDepth {
		return nil, errBadJSON
	}
	defer func() { d.depth-- }()
	d.ws()
	out := []string{}
	if d.i < len(d.b) && d.b[d.i] == ']' {
		d.i++
		return out, nil
	}
	for {
		if d.null() {
			out = append(out, "")
		} else {
			s, err := d.str(false)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		d.ws()
		if d.i >= len(d.b) {
			return nil, errBadJSON
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case ']':
			d.i++
			return out, nil
		default:
			return nil, errBadJSON
		}
	}
}

// readPayload reads one frame's payload from r into a pooled slice,
// which the caller hands back with putPayload.
func readPayload(r io.Reader) (*[]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("lxp: frame of %d bytes exceeds limit", n)
	}
	p := getPayload(int(n))
	if _, err := io.ReadFull(r, *p); err != nil {
		putPayload(p)
		return nil, err
	}
	return p, nil
}

// readRequest reads one request frame from r through a pooled payload.
// Decoded strings never alias the pooled payload.
func readRequest(r io.Reader, req *request) error {
	p, err := readPayload(r)
	if err != nil {
		return err
	}
	defer putPayload(p)
	rq, err := decodeRequest(*p)
	if err != nil {
		return err
	}
	*req = rq
	return nil
}
