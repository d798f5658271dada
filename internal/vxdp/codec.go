package vxdp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"

	"mix/internal/wirejson"
)

// The VXDP frame codec. Navigation frames — requests carrying only
// op/id/label/self, responses carrying only ok/id/label/error/win, which
// is every root/down/right/fetch/select/close exchange — are encoded and
// decoded by hand: no reflection, no boxing, and (through the bufio
// entry points the session loop and Client use) no copy of the payload.
// An open request (op, query and a forwarded open's proxied flag) is
// decoded by hand too; it is encoded by encoding/json.
// A window decodes into one exact-size slice and one string holding all
// its labels.
// The bytes are exactly json.Marshal's: same field order, same
// omitempty rules, same HTML-safe string escaping. Every other frame
// shape, and any payload the lean parser does not accept in full
// (whitespace, escapes or non-ASCII outside a query, null, unknown or
// differently-cased keys, non-canonical numbers), goes through
// encoding/json unchanged, which stays the protocol's definition and the
// tests' oracle.

// navRequest reports whether req is a navigation frame the lean encoder
// renders: nothing set beyond op, id, label and self.
func navRequest(req *Request) bool {
	return req.Query == "" && req.Region == nil &&
		req.Tree == nil && req.Gen == 0 && !req.Proxied &&
		req.TraceCtx == nil
}

// navResponse reports whether resp is a navigation frame the lean
// encoder renders: nothing set beyond ok, id, label, error and win.
func navResponse(resp *Response) bool {
	return resp.Stats == nil && len(resp.Trace) == 0 &&
		resp.Tree == nil && resp.Gen == 0 && len(resp.Spans) == 0 &&
		len(resp.Slow) == 0
}

// appendField appends the separator (unless the object opened at start
// is still empty) and the quoted key.
func appendField(b []byte, start int, key string) []byte {
	if len(b) > start+1 {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// appendCmd appends the JSON of a navigation request, as json.Marshal
// renders a Request with only these fields set.
func appendCmd(b []byte, c *Cmd) []byte {
	start := len(b)
	b = append(b, `{"op":`...)
	b = wirejson.AppendString(b, c.Op)
	if c.ID != 0 {
		b = strconv.AppendUint(appendField(b, start, "id"), c.ID, 10)
	}
	if c.Label != "" {
		b = wirejson.AppendString(appendField(b, start, "label"), c.Label)
	}
	if c.Self {
		b = append(appendField(b, start, "self"), "true"...)
	}
	return append(b, '}')
}

// appendNavResponse appends the JSON of a navigation response, as
// json.Marshal renders a Response with only these fields set.
func appendNavResponse(b []byte, resp *Response) []byte {
	start := len(b)
	r := &resp.NavResult
	b = append(b, '{')
	if r.OK {
		b = append(appendField(b, start, "ok"), "true"...)
	}
	if r.ID != 0 {
		b = strconv.AppendUint(appendField(b, start, "id"), r.ID, 10)
	}
	if r.Label != "" {
		b = wirejson.AppendString(appendField(b, start, "label"), r.Label)
	}
	if r.Err != "" {
		b = wirejson.AppendString(appendField(b, start, "error"), r.Err)
	}
	if len(resp.Win) > 0 {
		b = append(appendField(b, start, "win"), '[')
		for i := range resp.Win {
			n := &resp.Win[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = wirejson.AppendString(append(b, `{"l":`...), n.Label)
			b = strconv.AppendInt(append(b, `,"d":`...), int64(n.Down), 10)
			b = strconv.AppendInt(append(b, `,"r":`...), int64(n.Right), 10)
			if n.Unknown {
				b = append(b, `,"u":true`...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// navFields is one decoded navigation object before it is applied: the
// values and which keys were present (json.Unmarshal leaves absent
// fields alone, so the lean decoder must too).
type navFields struct {
	op, label, err string
	id             uint64
	flag           bool // "self" in a request, "ok" in a response
	win            []WinNode
	query          string
	proxied        bool
	has            uint8
}

const (
	hasOp = 1 << iota
	hasID
	hasLabel
	hasFlag
	hasErr
	hasWin
	hasQuery
	hasProxied
)

// parseNav parses p as a canonical navigation object: no whitespace,
// keys exactly op/id/label/self/query/proxied (request) or
// ok/id/label/error/win (response), strings of plain printable ASCII
// without escapes — but for the query, which may hold any string
// json.Unmarshal accepts — ids as canonical decimal uint64s, flags as
// true/false, a window at most once and in the shape parseWin takes.
// Anything else returns false, and the
// caller falls back to encoding/json — so whatever this accepts,
// json.Unmarshal decodes to the same values without error.
func parseNav(p []byte, response bool, f *navFields) bool {
	if len(p) < 2 || p[0] != '{' {
		return false
	}
	i := 1
	if p[i] == '}' {
		return len(p) == 2
	}
	for {
		key, j, ok := wirejson.PlainString(p, i)
		if !ok || j >= len(p) || p[j] != ':' {
			return false
		}
		i = j + 1
		bit := navKey(key, response)
		var s []byte
		switch bit {
		case hasID:
			f.id, i, ok = wirejson.PlainUint(p, i)
		case hasFlag:
			f.flag, i, ok = wirejson.PlainBool(p, i)
		case hasProxied:
			f.proxied, i, ok = wirejson.PlainBool(p, i)
		case hasQuery:
			var buf [256]byte
			s, i, ok = wirejson.Unquote(buf[:0], p, i)
			f.query = string(s)
		case hasOp, hasLabel, hasErr:
			s, i, ok = wirejson.PlainString(p, i)
		case hasWin:
			if f.has&hasWin != 0 {
				return false
			}
			f.win, i, ok = parseWin(p, i)
		default:
			return false
		}
		if !ok || i >= len(p) {
			return false
		}
		switch bit {
		case hasOp:
			f.op = opName(s)
		case hasLabel:
			f.label = string(s)
		case hasErr:
			f.err = string(s)
		}
		f.has |= bit
		switch p[i] {
		case '}':
			return i+1 == len(p)
		case ',':
			i++
		default:
			return false
		}
	}
}

// navKey maps an object key to the field bit it sets, 0 for any key the
// lean parser leaves to encoding/json.
func navKey(key []byte, response bool) uint8 {
	switch string(key) {
	case "id":
		return hasID
	case "label":
		return hasLabel
	case "op":
		if !response {
			return hasOp
		}
	case "self":
		if !response {
			return hasFlag
		}
	case "query":
		if !response {
			return hasQuery
		}
	case "proxied":
		if !response {
			return hasProxied
		}
	case "ok":
		if response {
			return hasFlag
		}
	case "error":
		if response {
			return hasErr
		}
	case "win":
		if response {
			return hasWin
		}
	}
	return 0
}

// parseWin parses the window array at p[i]: entries exactly
// {"l":L,"d":D,"r":R} or {"l":L,"d":D,"r":R,"u":true}, keys in that
// order, with plain labels and canonical int32 links. It scans twice —
// once to size, once to fill — so the window costs one exact-size slice
// and one string holding every label, which the entries slice; nothing
// aliases p.
func parseWin(p []byte, i int) ([]WinNode, int, bool) {
	n, labels, end, ok := scanWin(p, i, nil, nil)
	if !ok {
		return nil, i, false
	}
	win := make([]WinNode, n)
	var sb strings.Builder
	sb.Grow(labels)
	scanWin(p, i, win, &sb)
	// Each entry's h held its label's length while sb filled.
	all, off := sb.String(), 0
	for k := range win {
		l := int(win[k].h)
		win[k].Label, win[k].h = all[off:off+l], 0
		off += l
	}
	return win, end, true
}

// scanWin walks the window array at p[i], returning its entry count,
// total label bytes and end. With win non-nil (sized by a first call)
// it also fills the links, appends the labels to sb and parks each
// label's length in the entry's h.
func scanWin(p []byte, i int, win []WinNode, sb *strings.Builder) (n, labels, end int, ok bool) {
	if i >= len(p) || p[i] != '[' {
		return 0, 0, i, false
	}
	i++
	if i < len(p) && p[i] == ']' {
		return 0, 0, i + 1, true
	}
	for {
		var (
			label       []byte
			down, right int32
			unknown     bool
		)
		if !bytes.HasPrefix(p[i:], []byte(`{"l":`)) {
			return 0, 0, i, false
		}
		if label, i, ok = wirejson.PlainString(p, i+len(`{"l":`)); !ok || !bytes.HasPrefix(p[i:], []byte(`,"d":`)) {
			return 0, 0, i, false
		}
		if down, i, ok = wirejson.PlainInt32(p, i+len(`,"d":`)); !ok || !bytes.HasPrefix(p[i:], []byte(`,"r":`)) {
			return 0, 0, i, false
		}
		if right, i, ok = wirejson.PlainInt32(p, i+len(`,"r":`)); !ok {
			return 0, 0, i, false
		}
		if unknown = bytes.HasPrefix(p[i:], []byte(`,"u":true`)); unknown {
			i += len(`,"u":true`)
		}
		if i+1 >= len(p) || p[i] != '}' {
			return 0, 0, i, false
		}
		if win != nil {
			win[n] = WinNode{Down: down, Right: right, Unknown: unknown, h: uint32(len(label))}
			sb.Write(label)
		}
		n++
		labels += len(label)
		switch p[i+1] {
		case ']':
			return n, labels, i + 2, true
		case ',':
			i += 2
		default:
			return 0, 0, i, false
		}
	}
}

// opName returns the protocol constant spelled by s, so decoding an op
// that arrives in a lean-parsed frame allocates nothing.
func opName(s []byte) string {
	switch string(s) {
	case OpRoot:
		return OpRoot
	case OpDown:
		return OpDown
	case OpRight:
		return OpRight
	case OpFetch:
		return OpFetch
	case OpSelect:
		return OpSelect
	case OpClose:
		return OpClose
	case OpStats:
		return OpStats
	case OpTrace:
		return OpTrace
	case OpSlow:
		return OpSlow
	case OpPing:
		return OpPing
	case OpOpen:
		return OpOpen
	}
	return string(s)
}

// decodeFrame decodes payload p into v (a *Request or *Response goes
// through the lean parser first) with exactly json.Unmarshal's result.
func decodeFrame(p []byte, v any) error {
	var f navFields
	switch v := v.(type) {
	case *Request:
		if v != nil && parseNav(p, false, &f) {
			if f.has&hasOp != 0 {
				v.Op = f.op
			}
			if f.has&hasID != 0 {
				v.ID = f.id
			}
			if f.has&hasLabel != 0 {
				v.Label = f.label
			}
			if f.has&hasFlag != 0 {
				v.Self = f.flag
			}
			if f.has&hasQuery != 0 {
				v.Query = f.query
			}
			if f.has&hasProxied != 0 {
				v.Proxied = f.proxied
			}
			return nil
		}
	case *Response:
		// A window decodes into a fresh slice; json.Unmarshal would reuse
		// one already there, so a prior window takes encoding/json.
		if v != nil && parseNav(p, true, &f) && (f.has&hasWin == 0 || v.Win == nil) {
			if f.has&hasFlag != 0 {
				v.OK = f.flag
			}
			if f.has&hasID != 0 {
				v.ID = f.id
			}
			if f.has&hasLabel != 0 {
				v.Label = f.label
			}
			if f.has&hasErr != 0 {
				v.Err = f.err
			}
			if f.has&hasWin != 0 {
				v.Win = f.win
			}
			return nil
		}
	}
	return json.Unmarshal(p, v)
}

// --- framing ------------------------------------------------------------------

// Frames are wirejson's: length-prefixed, checked against MaxFrame, and
// assembled or read in its pooled buffers where the bufio entry points'
// own buffers do not serve.

// WriteRequest writes req as one frame. A navigation request is built
// in w's free buffer space and costs no allocation; any other request
// is written exactly as WriteFrame writes it.
func WriteRequest(w *bufio.Writer, req *Request) error {
	if !navRequest(req) {
		return WriteFrame(w, *req)
	}
	return wirejson.Send(w, appendCmd(append(w.AvailableBuffer(), 0, 0, 0, 0), &req.Cmd), MaxFrame)
}

// WriteResponse writes resp as one frame, lean for navigation
// responses, like WriteRequest.
func WriteResponse(w *bufio.Writer, resp *Response) error {
	if !navResponse(resp) {
		return WriteFrame(w, *resp)
	}
	return wirejson.Send(w, appendNavResponse(append(w.AvailableBuffer(), 0, 0, 0, 0), resp), MaxFrame)
}

// ReadRequest reads one frame into req, which it zeroes first, so one
// Request can be reused across frames. A frame that fits r's buffer is
// decoded in place; decoded strings never alias it.
func ReadRequest(r *bufio.Reader, req *Request) error {
	*req = Request{}
	return ReadFrame(r, req)
}

// ReadResponse reads one frame into resp, which it zeroes first, like
// ReadRequest.
func ReadResponse(r *bufio.Reader, resp *Response) error {
	*resp = Response{}
	return ReadFrame(r, resp)
}
