package vxdp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"testing"
)

// The lean navigation-frame codec is held to encoding/json, which stays
// the protocol's definition: every frame it writes must be json.Marshal's
// bytes, and every payload it reads must decode to json.Unmarshal's
// values with json.Unmarshal's error or success.

var navOps = []string{OpRoot, OpDown, OpRight, OpFetch, OpSelect, OpClose}

func navFrameCases() []any {
	var out []any
	for _, op := range navOps {
		out = append(out,
			Request{Cmd: Cmd{Op: op}},
			Request{Cmd: Cmd{Op: op, ID: 7}},
			Request{Cmd: Cmd{Op: op, ID: math.MaxUint64, Label: "a<b&c", Self: true}},
			Request{Cmd: Cmd{Op: op, Label: "héllo\x01", Self: true}},
		)
	}
	return append(out,
		Request{},
		Response{},
		Response{NavResult: NavResult{OK: true}},
		Response{NavResult: NavResult{OK: true, ID: 3}},
		Response{NavResult: NavResult{OK: true, Label: "héllo\x01"}},
		Response{NavResult: NavResult{Label: "a<b&c"}},
		Response{NavResult: NavResult{Err: "boom \"quoted\""}},
		Response{NavResult: NavResult{OK: true, ID: math.MaxUint64, Label: "x", Err: "y"}},
		Response{NavResult: NavResult{OK: true, ID: 9}, Win: []WinNode{{Label: "med_home", Down: 1, Right: -1}}},
		Response{NavResult: NavResult{OK: true, ID: 9}, Win: []WinNode{
			{Label: "med_home", Down: 1, Right: WinOut}, {Label: "", Down: WinNone, Right: 2},
			{Label: "a<b&c", Down: WinOut, Right: WinNone}, {Label: "héllo\x01", Down: math.MaxInt32, Right: math.MinInt32},
		}},
		Response{NavResult: NavResult{OK: true, ID: 9}, Win: []WinNode{}},
		Response{NavResult: NavResult{OK: true, ID: 9}, Win: []WinNode{
			{Label: "med_home", Down: WinNone, Right: 1}, {Down: WinOut, Right: 2, Unknown: true},
			{Down: WinOut, Right: WinOut, Unknown: true},
		}},
		Response{NavResult: NavResult{OK: true, ID: 9}, Win: []WinNode{{Label: "x", Down: 1, Right: 2, Unknown: true}}},
	)
}

// frameOf splits a written frame into its payload, checking the header.
func frameOf(t *testing.T, b []byte) []byte {
	t.Helper()
	if len(b) < 4 || int(binary.BigEndian.Uint32(b)) != len(b)-4 {
		t.Fatalf("bad frame header in %q", b)
	}
	return b[4:]
}

// TestNavFrameCodecMatchesJSON: for every navigation op, the lean
// encoder emits json.Marshal's bytes through every entry point, and the
// lean decoder returns json.Unmarshal's values.
func TestNavFrameCodecMatchesJSON(t *testing.T) {
	for _, v := range navFrameCases() {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		ptr := reflect.New(reflect.TypeOf(v))
		ptr.Elem().Set(reflect.ValueOf(v))

		var byValue, byPtr, buffered bytes.Buffer
		if err := WriteFrame(&byValue, v); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&byPtr, ptr.Interface()); err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(&buffered)
		switch v := ptr.Interface().(type) {
		case *Request:
			err = WriteRequest(bw, v)
		case *Response:
			err = WriteResponse(bw, v)
		}
		if err != nil || bw.Flush() != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{"WriteFrame(value)": byValue.Bytes(),
			"WriteFrame(pointer)": byPtr.Bytes(), "bufio": buffered.Bytes()} {
			if got := frameOf(t, b); !bytes.Equal(got, want) {
				t.Fatalf("%s of %+v:\n got %s\nwant %s", name, v, got, want)
			}
		}

		oracle := reflect.New(reflect.TypeOf(v))
		if err := json.Unmarshal(want, oracle.Interface()); err != nil {
			t.Fatal(err)
		}
		viaFrame := reflect.New(reflect.TypeOf(v))
		if err := ReadFrame(bytes.NewReader(byValue.Bytes()), viaFrame.Interface()); err != nil {
			t.Fatal(err)
		}
		viaBufio := reflect.New(reflect.TypeOf(v))
		br := bufio.NewReader(bytes.NewReader(buffered.Bytes()))
		switch v := viaBufio.Interface().(type) {
		case *Request:
			err = ReadRequest(br, v)
		case *Response:
			err = ReadResponse(br, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]reflect.Value{"ReadFrame": viaFrame, "bufio": viaBufio} {
			if !reflect.DeepEqual(got.Interface(), oracle.Interface()) {
				t.Fatalf("%s decoded %+v, json.Unmarshal %+v", name, got.Elem(), oracle.Elem())
			}
		}
		// A window with leaves takes the lean parser.
		if resp, ok := v.(Response); ok && slices.ContainsFunc(resp.Win, func(n WinNode) bool { return n.Unknown }) {
			var f navFields
			if !parseNav(want, true, &f) || !slices.EqualFunc(f.win, resp.Win, func(a, b WinNode) bool { return a == b }) {
				t.Fatalf("the lean parser did not decode %s", want)
			}
		}
	}
}

// TestNonNavFieldsTakeJSON guards the lean encoder's shape test: setting
// any Request or Response field outside op/id/label/self and
// ok/id/label/error/win — including fields added after this test — must
// route the frame through encoding/json, never drop the field.
func TestNonNavFieldsTakeJSON(t *testing.T) {
	lean := map[string]bool{"Op": true, "ID": true, "Label": true, "Self": true, "OK": true, "Err": true, "Win": true}
	for _, base := range []any{Request{Cmd: Cmd{Op: OpDown, ID: 1}}, Response{NavResult: NavResult{OK: true, ID: 1}}} {
		var walk func(v reflect.Value)
		root := reflect.New(reflect.TypeOf(base)).Elem()
		walk = func(v reflect.Value) {
			for i := 0; i < v.NumField(); i++ {
				f, sf := v.Field(i), v.Type().Field(i)
				if sf.Anonymous {
					walk(f)
					continue
				}
				if lean[sf.Name] {
					continue
				}
				root.Set(reflect.ValueOf(base))
				setNonZero(f)
				want, err := json.Marshal(root.Interface())
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteFrame(&buf, root.Interface()); err != nil {
					t.Fatal(err)
				}
				if got := frameOf(t, buf.Bytes()); !bytes.Equal(got, want) {
					t.Fatalf("%T.%s set: frame %s, json.Marshal %s", base, sf.Name, got, want)
				}
			}
		}
		walk(root)
	}
}

// setNonZero gives v a value json.Marshal does not omit.
func setNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint64:
		v.SetUint(1)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	default:
		panic(fmt.Sprintf("setNonZero: unhandled kind %s", v.Kind()))
	}
}

// FuzzNavFrameCodec: on arbitrary Cmd/NavResult values the lean
// encoding is json.Marshal's, and on arbitrary payloads the decoder
// returns exactly what json.Unmarshal returns into the same prior value
// — same fields, same error or success.
func FuzzNavFrameCodec(f *testing.F) {
	for _, p := range []string{
		`{"op":"down","id":7}`, `{"ok":true,"id":3,"label":"x","error":"y"}`, `{}`,
		`{ "op":"down"}`, "{\"op\":\"down\"}\n", `{"id":5,"op":"down"}`, `{"op":"down","op":"right"}`,
		`{"OP":"down"}`, `{"Label":"x"}`, `{"op":null}`, `null`, `{"label":"a\u003cb"}`,
		"{\"label\":\"\xff\"}", `{"label":"é"}`, `{"id":01}`, `{"id":0}`, `{"id":1e3}`, `{"id":1.0}`,
		`{"id":-1}`, `{"id":18446744073709551615}`, `{"id":18446744073709551616}`, `{"op":"do`,
		`{"self":true,"ok":false}`, `{"self":tru}`, `{"error":"boom"}`, `{"op":"down",}`,
		`{"op":"down"}x`, `{"cmds":[]}`, `{"trace_ctx":"x"}`, `[]`, `{"id":"7"}`,
		`{"ok":true,"id":3,"win":[{"l":"a","d":1,"r":-1},{"l":"","d":-1,"r":-2}]}`, `{"win":[]}`,
		`{"win":null}`, `{"win":[{"l":"a","d":1}]}`, `{"win":[{"d":1,"l":"a","r":2}]}`,
		`{"win":[{"l":"a","d":-0,"r":1}]}`, `{"win":[{"l":"a","d":2147483648,"r":1}]}`,
		`{"win":[{"l":"a","d":-2147483648,"r":1}]}`, `{"win":[{"l":"a\u003c","d":1,"r":1}]}`,
		`{"win":[],"win":[]}`, `{"win":[{"l":"a","d":1,"r":1},]}`, `{"win":[{"L":"a","d":1,"r":1}]}`,
		`{"win":{}}`, `{"win":[{"l":"a","d":1,"r":1}`,
		`{"win":[{"l":"","d":-2,"r":1,"u":true},{"l":"","d":-2,"r":-1,"u":true}]}`,
		`{"win":[{"l":"","d":-2,"r":1,"u":false}]}`, `{"win":[{"l":"","d":-2,"r":1,"u":1}]}`,
		`{"win":[{"l":"","d":-2,"u":true,"r":1}]}`, `{"win":[{"l":"","d":-2,"r":1,"u":true,"u":true}]}`,
		`{"win":[{"l":"","d":-2,"r":1,"u":tru}]}`,
		`{"op":"open","query":"CONSTRUCT <a> $X {$X} </a> {} WHERE s r.x $X"}`,
		`{"op":"open","query":"WHERE $P \u003c \"6\" AND\n\t$P > \"a\\b\/\""}`,
		`{"op":"open","query":"\ud83d\ude00 \ud800 \udc00x \u00e9"}`, `{"op":"open","query":"é ☃ 😀"}`,
		"{\"op\":\"open\",\"query\":\"\xff\xfe \xc3\"}", "{\"query\":\"a\x01b\"}",
		`{"query":"\x"}`, `{"query":"\u12"}`, `{"query":"abc`, `{"query":""}`, `{"query":null}`,
		`{"query":"a","query":"b"}`, `{"Query":"a"}`, `{"query":7}`,
		`{"op":"open","query":"q","proxied":true}`, `{"proxied":false}`, `{"proxied":null}`,
		`{"proxied":1}`, `{"op":"open","proxied":true,"query":"q","trace_ctx":{"t":"x"}}`,
	} {
		f.Add(OpSelect, "a<b&c", uint64(9), true, []byte(p))
	}
	f.Fuzz(func(t *testing.T, op, label string, id uint64, flag bool, payload []byte) {
		cmd := Cmd{Op: op, ID: id, Label: label, Self: flag}
		nr := NavResult{OK: !flag, ID: id, Label: label, Err: op}
		win := []WinNode{{Label: label, Down: int32(id), Right: int32(id >> 32)}, {Label: op, Down: WinOut, Unknown: flag}}
		for _, v := range []any{Request{Cmd: cmd}, Response{NavResult: nr}, Response{NavResult: nr, Win: win}} {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, v); (err != nil) != (len(want) > MaxFrame) {
				t.Fatalf("WriteFrame of a %d-byte payload: %v", len(want), err)
			}
			if len(want) > MaxFrame {
				continue
			}
			if got := buf.Bytes()[4:]; !bytes.Equal(got, want) {
				t.Fatalf("lean %s != json %s", got, want)
			}
		}

		leanReq, jsonReq := Request{Cmd: cmd}, Request{Cmd: cmd}
		leanErr, jsonErr := decodeFrame(payload, &leanReq), json.Unmarshal(payload, &jsonReq)
		if fmt.Sprint(leanErr) != fmt.Sprint(jsonErr) || !reflect.DeepEqual(leanReq, jsonReq) {
			t.Fatalf("request %q: lean %+v (%v), json %+v (%v)", payload, leanReq, leanErr, jsonReq, jsonErr)
		}
		// A prior window too: json.Unmarshal decodes a new one into it.
		for _, prior := range [][]WinNode{nil, {{Label: "old", Down: 1}}} {
			leanResp := Response{NavResult: nr, Win: slices.Clone(prior)}
			jsonResp := Response{NavResult: nr, Win: slices.Clone(prior)}
			leanErr, jsonErr = decodeFrame(payload, &leanResp), json.Unmarshal(payload, &jsonResp)
			if fmt.Sprint(leanErr) != fmt.Sprint(jsonErr) || !reflect.DeepEqual(leanResp, jsonResp) {
				t.Fatalf("response %q: lean %+v (%v), json %+v (%v)", payload, leanResp, leanErr, jsonResp, jsonErr)
			}
		}
	})
}

// fullWindow is a window as large as WindowBytes lets a server ship,
// its labels cycling through the given ones.
func fullWindow(labels ...string) []WinNode {
	var win []WinNode
	for budget := WindowBytes; ; {
		l := labels[len(win)%len(labels)]
		if budget -= WinNodeBytes(l, false); budget < 0 {
			return win
		}
		win = append(win, WinNode{Label: l, Down: int32(len(win) + 1), Right: WinOut})
	}
}

// TestServerNavFrameZeroAllocs pins the session loop's codec work for a
// warm navigation: reading a right frame and writing its result
// allocate nothing, with or without a window of plain labels — and the
// largest window, escaped labels included, still fits the FrameBuffer
// both ends read through.
func TestServerNavFrameZeroAllocs(t *testing.T) {
	var in bytes.Buffer
	if err := WriteFrame(&in, Request{Cmd: Cmd{Op: OpRight, ID: 4711}}); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(in.Bytes())
	br := bufio.NewReader(rd)
	var out bytes.Buffer
	bw := bufio.NewWriterSize(&out, FrameBuffer)
	var req Request
	escaped := Response{NavResult: NavResult{OK: true, ID: math.MaxUint64}, Win: fullWindow("a<b", "\x01", "é")}
	if err := WriteResponse(bw, &escaped); err != nil || bw.Flush() != nil || out.Len() > FrameBuffer {
		t.Fatalf("frame with %d escaped window nodes is %d bytes (%v), over the %d-byte buffer", len(escaped.Win), out.Len(), err, FrameBuffer)
	}
	for _, resp := range []Response{
		{NavResult: NavResult{OK: true, ID: 4712}},
		{NavResult: NavResult{OK: true, ID: math.MaxUint64}, Win: fullWindow("med_home", "", "91234")},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(in.Bytes())
			br.Reset(rd)
			out.Reset()
			if err := ReadRequest(br, &req); err != nil || req.Op != OpRight || req.ID != 4711 {
				t.Fatalf("ReadRequest: %+v, %v", req, err)
			}
			if err := WriteResponse(bw, &resp); err != nil || bw.Flush() != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("server-side right frame with %d window nodes: %.1f allocs, want 0", len(resp.Win), allocs)
		}
		if out.Len() > FrameBuffer {
			t.Fatalf("frame with %d window nodes is %d bytes, over the %d-byte buffer", len(resp.Win), out.Len(), FrameBuffer)
		}
	}
}

// fakeServer serves a client over a pipe: answer(req) is the response
// to every request before close. Cleanup closes the pipe without taking
// the client's lock, so a test that gave up on a stuck client still ends.
func fakeServer(t *testing.T, answer func(req *Request) Response) *Client {
	t.Helper()
	cconn, sconn := net.Pipe()
	go func() {
		defer sconn.Close()
		br, bw := bufio.NewReader(sconn), bufio.NewWriter(sconn)
		var req Request
		for ReadRequest(br, &req) == nil && req.Op != OpClose {
			resp := answer(&req)
			if WriteResponse(bw, &resp) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { cconn.Close() })
	return NewClient(cconn)
}

// TestClientWarmFetchAllocs pins the client side: a Fetch answered by a
// server allocates at most the label it returns; absorbing a window
// costs at most two allocations (its entries and its labels); and a
// command a window answers allocates nothing.
func TestClientWarmFetchAllocs(t *testing.T) {
	// Node 0 has children 1 and 2; node 2's right sibling is unshipped,
	// so Right from it asks the server, which ships the same shape again
	// under fresh handles.
	win := []WinNode{{Label: "answer", Down: 1, Right: WinNone}, {Label: "med_home", Down: WinNone, Right: 2}, {Label: "med_home", Down: WinNone, Right: WinOut}}
	var next uint64 = 100
	c := fakeServer(t, func(req *Request) Response {
		switch {
		case req.Op == OpFetch:
			return Response{NavResult: NavResult{OK: true, Label: "med_home"}}
		case req.ID == 1:
			return Response{NavResult: NavResult{OK: true, ID: 1}}
		}
		next += uint64(len(win))
		return Response{NavResult: NavResult{OK: true, ID: next}, Win: win}
	})
	plain, err := c.Down(nodeID{c: c, h: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if l, err := c.Fetch(plain); err != nil || l != "med_home" {
			t.Fatalf("Fetch: %q, %v", l, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm client Fetch: %.1f allocs, want ≤ 1 (the label)", allocs)
	}

	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	last := root
	allocs = testing.AllocsPerRun(200, func() {
		first, _ := c.Down(root)
		last, _ = c.Right(first)
		if l, _ := c.Fetch(last); l != "med_home" {
			t.Fatalf("local Fetch: %q", l)
		}
		if sel, _ := c.SelectLabel(first, "med_home", false); sel != last {
			t.Fatalf("local select landed on %v, want %v", sel, last)
		}
		if again, _ := c.Root(); again != root {
			t.Fatal("second Root did not answer from the window")
		}
	})
	if allocs != 0 {
		t.Fatalf("commands answered from a window: %.1f allocs, want 0", allocs)
	}

	trips := c.RoundTrips()
	allocs = testing.AllocsPerRun(200, func() {
		top, err := c.Right(last) // unshipped: one round trip, a fresh window
		if err != nil || top == nil {
			t.Fatalf("Right past the window: %v, %v", top, err)
		}
		first, _ := c.Down(top)
		last, _ = c.Right(first)
	})
	if allocs > 2 {
		t.Fatalf("absorbing a window: %.1f allocs, want ≤ 2", allocs)
	}
	if got := c.RoundTrips() - trips; got != 201 {
		t.Fatalf("%d round trips for 201 commands past a window", got)
	}
}

// BenchmarkNavFrames encodes and decodes the four frames of a d and an f
// command through the session loop's and Client's entry points.
func BenchmarkNavFrames(b *testing.B) {
	reqs := []Request{{Cmd: Cmd{Op: OpDown, ID: 4711}}, {Cmd: Cmd{Op: OpFetch, ID: 4712}}}
	resps := []Response{{NavResult: NavResult{OK: true, ID: 4712}}, {NavResult: NavResult{OK: true, Label: "med_home"}}}
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	var req Request
	var resp Response
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		for j := range reqs {
			if WriteRequest(bw, &reqs[j]) != nil || WriteResponse(bw, &resps[j]) != nil {
				b.Fatal("encode failed")
			}
		}
		if bw.Flush() != nil {
			b.Fatal("flush failed")
		}
		rd.Reset(wire.Bytes())
		br.Reset(rd)
		for range reqs {
			if ReadRequest(br, &req) != nil || ReadResponse(br, &resp) != nil {
				b.Fatal("decode failed")
			}
		}
	}
}
