package lxp

import (
	"bytes"
	"encoding/json"
	"testing"

	"mix/internal/xmltree"
)

// nastyTree exercises every string-escaping regime: plain ASCII,
// JSON-special characters, HTML-escaped characters, non-ASCII and
// control bytes.
func nastyTree() *xmltree.Tree {
	return xmltree.Elem("root",
		xmltree.Text("plain", "value"),
		xmltree.Text(`qu"ote`, `back\slash`),
		xmltree.Text("html<&>", "a<b"),
		xmltree.Text("héllo", "wörld ☃"),
		xmltree.Text("ctl\x01\n", "\t"),
		xmltree.Elem("empty"),
	)
}

func codecResponses() map[string]leanResponse {
	return map[string]leanResponse{
		"hole":       {hole: "root"},
		"holeRid":    {rid: 3, hole: "root"},
		"errorRid":   {rid: 1 << 33, err: "stale"},
		"fill":       {trees: []*xmltree.Tree{nastyTree(), xmltree.Leaf("x")}, hasTrees: true},
		"fillEmpty":  {trees: []*xmltree.Tree{}, hasTrees: true},
		"error":      {err: `bad <hole> "id"`},
		"holeNasty":  {hole: "a/b:3\x02é"},
		"manyEmpty":  {many: map[string][]*xmltree.Tree{}},
		"manySorted": {many: map[string][]*xmltree.Tree{"z": {xmltree.Leaf("1")}, "a": {}, "m<&>": {nastyTree()}}},
	}
}

func leanEqual(a, b *leanResponse) bool {
	if a.rid != b.rid || a.hole != b.hole || a.err != b.err || a.hasTrees != b.hasTrees {
		return false
	}
	forestEq := func(x, y []*xmltree.Tree) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !xmltree.Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if !forestEq(a.trees, b.trees) {
		return false
	}
	if len(a.many) != len(b.many) || (a.many == nil) != (b.many == nil) {
		return false
	}
	for id, x := range a.many {
		y, ok := b.many[id]
		if !ok || !forestEq(x, y) {
			return false
		}
	}
	return true
}

// TestLeanEncodeMatchesJSON: the lean encoder must reproduce
// json.Marshal of the wire structs byte for byte.
func TestLeanEncodeMatchesJSON(t *testing.T) {
	for name, lr := range codecResponses() {
		lr := lr
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			encodeResponse(&buf, &lr)
			want, err := json.Marshal(wireFromLean(lr))
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("lean encoding diverged\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// TestLeanDecodeMatchesJSON: the lean decoder must agree with
// encoding/json on canonical payloads and on reordered / whitespaced /
// unknown-field variants.
func TestLeanDecodeMatchesJSON(t *testing.T) {
	var payloads []string
	for _, lr := range codecResponses() {
		b, err := json.Marshal(wireFromLean(lr))
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, string(b))
	}
	payloads = append(payloads,
		` { "trees" : null } `,
		`{"trees":[{"c":[{"l":"orphan"}],"l":"late","x":[1,2,{"y":null}]}]}`,
		`{"error":"boom","hole":"h","trees":[]}`,
		`{"unknown":123e4,"trees":null,"other":true}`,
		`{"trees":[{"l":"A 😀"}]}`,
		`null`,
	)
	for _, payload := range payloads {
		got := new(leanResponse)
		err := decodeResponse([]byte(payload), xmltree.NewInterner(), nil, got)
		if err != nil {
			t.Errorf("lean decode failed on %q: %v", payload, err)
			continue
		}
		var resp response
		if err := json.Unmarshal([]byte(payload), &resp); err != nil {
			t.Fatalf("generic decode failed on %q: %v", payload, err)
		}
		want := leanFromWire(resp)
		if !leanEqual(got, &want) {
			t.Errorf("decoders disagree on %q\n lean: %+v\n json: %+v", payload, got, want)
		}
	}
}

// TestLeanDecodeRejects: malformed payloads must error, not panic.
func TestLeanDecodeRejects(t *testing.T) {
	for _, payload := range []string{
		"", "{", `{"trees":}`, `{"trees":[}`, `{"trees":[{]}`, `[1]`, `5`,
		`{"trees":null}x`, `{"hole":"a"`, `{"trees":[{"l":"a"},]}`, `{"trees":truex}`,
		`{"x":xyz,"trees":null}`, `{"x":-,"hole":"a"}`, `{"x":tru}`,
	} {
		if err := decodeResponse([]byte(payload), nil, nil, new(leanResponse)); err == nil {
			t.Errorf("lean decode accepted malformed payload %q", payload)
		}
	}
}

// TestDecodeInternsLabelsNotHoleIDs: both decode paths intern labels
// but not hole ids (a hole's child, the hole field), which are unique
// for the session and would only grow the interner's table.
func TestDecodeInternsLabelsNotHoleIDs(t *testing.T) {
	fill := leanResponse{hole: "root", hasTrees: true, trees: []*xmltree.Tree{
		xmltree.Elem("a", xmltree.Hole("0:1")), xmltree.Elem("a", xmltree.Leaf("é")),
	}}
	canonical, err := json.Marshal(wireFromLean(fill))
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{canonical, append([]byte(" "), canonical...)} {
		in := xmltree.NewInterner()
		if err := decodeResponse(payload, in, nil, new(leanResponse)); err != nil {
			t.Fatal(err)
		}
		if in.Len() != 3 { // a, the hole label, é
			t.Errorf("decoding %s interned %d strings, want 3", payload, in.Len())
		}
	}
}

// TestLeanDecodeNestingBound: the lean path bounds nesting where
// encoding/json does (10 000 open brackets), so a canonical payload
// just inside the bound decodes and one just past it is rejected, by
// both decoders alike.
func TestLeanDecodeNestingBound(t *testing.T) {
	chain := func(k int) *xmltree.Tree {
		t := xmltree.Leaf("x")
		for i := 1; i < k; i++ {
			t = xmltree.Elem("x", t)
		}
		return t
	}
	for _, tc := range []struct {
		lr    leanResponse
		depth int
	}{
		{leanResponse{trees: []*xmltree.Tree{chain(4999)}, hasTrees: true}, 9999},
		{leanResponse{trees: []*xmltree.Tree{chain(5000)}, hasTrees: true}, 10001},
		{leanResponse{many: map[string][]*xmltree.Tree{"a": {chain(4999)}}}, 10000},
		{leanResponse{many: map[string][]*xmltree.Tree{"a": {chain(5000)}}}, 10002},
	} {
		var buf bytes.Buffer
		encodeResponse(&buf, &tc.lr)
		leanErr := decodeResponse(buf.Bytes(), nil, nil, new(leanResponse))
		jsonErr := json.Unmarshal(buf.Bytes(), new(response))
		if (leanErr == nil) != (tc.depth <= 10000) || (jsonErr == nil) != (tc.depth <= 10000) {
			t.Errorf("nesting %d: lean %v, encoding/json %v", tc.depth, leanErr, jsonErr)
		}
	}
}

// FuzzLeanCodecRoundTrip builds a forest from the fuzz input, checks
// the lean encoding is byte-identical to encoding/json, and that both
// decoders read it back to the same trees.
func FuzzLeanCodecRoundTrip(f *testing.F) {
	f.Add(uint64(0), "root", "a\x00b<c", []byte{3, 1, 0, 2, 9})
	f.Add(uint64(1), "", "héllo☃", []byte{0})
	f.Add(^uint64(0), `h"ole`, "\x1f\\", []byte{5, 5, 5, 5, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, rid uint64, hole, label string, shape []byte) {
		// shape drives a tiny deterministic tree builder.
		var build func(depth int) *xmltree.Tree
		i := 0
		build = func(depth int) *xmltree.Tree {
			n := xmltree.Elem(label + string(rune('a'+depth)))
			if i >= len(shape) || depth > 4 {
				return n
			}
			kids := int(shape[i]) % 4
			i++
			for k := 0; k < kids; k++ {
				n.Children = append(n.Children, build(depth+1))
			}
			return n
		}
		lr := leanResponse{rid: rid, hole: hole, trees: []*xmltree.Tree{build(0), xmltree.Leaf(label)}, hasTrees: true}
		var buf bytes.Buffer
		encodeResponse(&buf, &lr)
		want, err := json.Marshal(wireFromLean(lr))
		if err != nil {
			t.Fatal(err)
		}
		if buf.String() != string(want) {
			t.Fatalf("lean encoding diverged\n got: %s\nwant: %s", buf.String(), want)
		}
		got := new(leanResponse)
		if err := decodeResponse(buf.Bytes(), xmltree.NewInterner(), nil, got); err != nil {
			t.Fatalf("lean decode of own encoding failed: %v", err)
		}
		var resp response
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			t.Fatalf("generic decode of lean encoding failed: %v", err)
		}
		fromJSON := leanFromWire(resp)
		if !leanEqual(got, &fromJSON) {
			t.Fatalf("decoders disagree on round-tripped payload %s", buf.String())
		}
	})
}

// FuzzLeanDecode feeds arbitrary payloads to the lean decoder: it must
// never panic, must reject exactly what encoding/json rejects, and must
// agree with it on every payload both accept.
func FuzzLeanDecode(f *testing.F) {
	f.Add([]byte(`{"trees":[{"l":"a","c":[{"l":"b"}]}]}`))
	f.Add([]byte(`{"hole":"root","trees":null}`))
	f.Add([]byte(`{"trees":null,"many":{"a":[],"b":[{"l":"x"}]}}`))
	f.Add([]byte(`{"trees":[null,{"l":null,"c":null}]}`))
	f.Add([]byte(`{"rid":42,"hole":"root","trees":null}`))
	f.Add([]byte(`{"trees":[],"rid":18446744073709551615,"rid":null}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		got := new(leanResponse)
		leanErr := decodeResponse(payload, xmltree.NewInterner(), nil, got)
		var resp response
		jsonErr := json.Unmarshal(payload, &resp)
		if (leanErr != nil) != (jsonErr != nil) {
			t.Fatalf("decoders disagree on accepting %q: lean %v, generic %v", payload, leanErr, jsonErr)
		}
		if jsonErr != nil {
			return
		}
		want := leanFromWire(resp)
		if !leanEqual(got, &want) {
			t.Fatalf("decoders disagree on %q", payload)
		}
	})
}

// TestEscapedLabelsStayLean guards the encoding/json fallback against
// becoming a performance cliff: a canonical fill whose labels need
// escapes or are non-ASCII still takes the lean path, within a few
// allocations of the same fill with plain labels (encoding/json costs
// over 1 400 on it).
func TestEscapedLabelsStayLean(t *testing.T) {
	escaped := benchForest()
	for _, book := range escaped.trees {
		book.Label = "livre-é"
		book.Children[0].Children[0].Label = `AT&T's <b>"naïve"</b> ☃`
		book.Children[1].Label = "auteur	"
	}
	decodeAllocs := func(lr leanResponse) float64 {
		payload, err := json.Marshal(wireFromLean(lr))
		if err != nil {
			t.Fatal(err)
		}
		in := xmltree.NewInterner()
		return testing.AllocsPerRun(50, func() {
			if err := decodeResponse(payload, in, nil, new(leanResponse)); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, esc := decodeAllocs(benchForest()), decodeAllocs(escaped)
	if esc > plain+4 {
		t.Fatalf("canonical fill with escaped labels: %.0f allocs, plain labels %.0f", esc, plain)
	}
}

func benchForest() leanResponse {
	var trees []*xmltree.Tree
	for i := 0; i < 40; i++ {
		trees = append(trees, xmltree.Elem("book",
			xmltree.Text("title", "the art of navigation"),
			xmltree.Text("author", "doe, j."),
			xmltree.Text("price", "42"),
			xmltree.Elem("tags", xmltree.Leaf("lazy"), xmltree.Leaf("views")),
		))
	}
	return leanResponse{trees: trees, hasTrees: true}
}

func BenchmarkEncodeResponseJSON(b *testing.B) {
	lr := benchForest()
	resp := wireFromLean(lr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(resp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeResponseLean(b *testing.B) {
	lr := benchForest()
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		encodeResponse(&buf, &lr)
	}
}

func BenchmarkDecodeResponseJSON(b *testing.B) {
	payload, _ := json.Marshal(wireFromLean(benchForest()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var resp response
		if err := json.Unmarshal(payload, &resp); err != nil {
			b.Fatal(err)
		}
		_ = leanFromWire(resp)
	}
}

func BenchmarkDecodeResponseLean(b *testing.B) {
	payload, _ := json.Marshal(wireFromLean(benchForest()))
	in := xmltree.NewInterner()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := decodeResponse(payload, in, nil, new(leanResponse)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- request codec ----------------------------------------------------------

func codecRequests() map[string]request {
	return map[string]request{
		"getRoot":  {Op: "get_root", URI: "mem://catalog"},
		"fill":     {Op: "fill", ID: "0/2:5"},
		"fillMany": {Op: "fill_many", IDs: []string{"a:0", "b:1", "c<&>:2"}},
		"emptyIDs": {Op: "fill_many", IDs: nil},
		"nasty":    {Op: "fill", ID: "hé\"llo\\☃\x01"},
		"bare":     {Op: "close"},
		"withRid":  {Rid: 9, Op: "fill", ID: "0:4"},
	}
}

func TestLeanEncodeRequestMatchesJSON(t *testing.T) {
	for name, req := range codecRequests() {
		var buf bytes.Buffer
		encodeRequest(&buf, req)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: lean encoding diverges\n got: %s\nwant: %s", name, buf.Bytes(), want)
		}
	}
}

func TestLeanDecodeRequestMatchesJSON(t *testing.T) {
	payloads := map[string][]byte{}
	for name, req := range codecRequests() {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		payloads[name] = b
	}
	payloads["spacing"] = []byte(" { \"op\" : \"fill\" , \"id\" : \"x:0\" } ")
	payloads["reordered"] = []byte(`{"ids":["a"],"unknown":{"x":[1,null]},"op":"fill_many"}`)
	payloads["nulls"] = []byte(`{"op":null,"uri":null,"id":null,"ids":null}`)
	payloads["nullElem"] = []byte(`{"op":"fill_many","ids":["a",null,"b"]}`)
	payloads["null"] = []byte(`null`)
	for name, payload := range payloads {
		var want request
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("%s: oracle rejects payload: %v", name, err)
		}
		got, err := decodeRequest(payload)
		if err != nil {
			t.Errorf("%s: lean decoder rejects %s: %v", name, payload, err)
			continue
		}
		if got.Rid != want.Rid || got.Op != want.Op || got.URI != want.URI || got.ID != want.ID {
			t.Errorf("%s: scalar mismatch\n got: %+v\nwant: %+v", name, got, want)
		}
		if len(got.IDs) != len(want.IDs) {
			t.Errorf("%s: ids mismatch\n got: %+v\nwant: %+v", name, got, want)
			continue
		}
		for i := range got.IDs {
			if got.IDs[i] != want.IDs[i] {
				t.Errorf("%s: ids[%d] = %q, want %q", name, i, got.IDs[i], want.IDs[i])
			}
		}
	}
}

func TestLeanDecodeRequestRejects(t *testing.T) {
	for _, payload := range []string{
		``, `{`, `{"op"}`, `{"op":"x"`, `{"op":"x"}y`,
		`{"ids":["a"`, `{"ids":["a",]}`, `{"ids":"a"}`, `{"ids":[,]}`,
		`[]`, `"fill"`, `{"op":"fill","id":"a","x":bogus}`,
	} {
		if _, err := decodeRequest([]byte(payload)); err == nil {
			t.Errorf("lean decoder accepted malformed request %q", payload)
		}
	}
}

func FuzzLeanDecodeRequest(f *testing.F) {
	for _, req := range codecRequests() {
		b, _ := json.Marshal(req)
		f.Add(b)
	}
	f.Add([]byte(`{"op":"fill_many","ids":["a",null],"junk":[{"x":1}]}`))
	f.Add([]byte(`{"rid":7,"op":"fill","id":"0/2:5"}`))
	f.Add([]byte(`{"op":"get_root","rid":18446744073709551615,"uri":"u","rid":3}`))
	f.Add([]byte(`{"rid":1e2,"op":"fill"}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want request
		oracleErr := json.Unmarshal(payload, &want)
		got, leanErr := decodeRequest(payload)
		if (leanErr != nil) != (oracleErr != nil) {
			t.Fatalf("decoders disagree on accepting %q: lean %v, oracle %v", payload, leanErr, oracleErr)
		}
		if oracleErr != nil {
			return
		}
		canonical, _ := json.Marshal(want)
		re, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		// On canonical payloads the decoders must agree exactly.
		if bytes.Equal(canonical, payloadWithoutSpace(payload)) && !bytes.Equal(re, canonical) {
			t.Fatalf("decode mismatch on canonical payload %q\n got: %s\nwant: %s", payload, re, canonical)
		}
		// Always: scalar fields agree (no duplicate-key or null games can
		// make encoding/json and the lean decoder diverge on strings).
		if got.Rid != want.Rid || got.Op != want.Op || got.URI != want.URI || got.ID != want.ID || len(got.IDs) != len(want.IDs) {
			t.Fatalf("request mismatch on %q\n got: %+v\nwant: %+v", payload, got, want)
		}
		for i := range got.IDs {
			if got.IDs[i] != want.IDs[i] {
				t.Fatalf("ids[%d] mismatch on %q: %q vs %q", i, payload, got.IDs[i], want.IDs[i])
			}
		}
	})
}

func payloadWithoutSpace(p []byte) []byte {
	var buf bytes.Buffer
	if json.Compact(&buf, p) != nil {
		return p
	}
	return buf.Bytes()
}
