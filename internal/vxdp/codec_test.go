package vxdp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
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
	}
}

// TestNonNavFieldsTakeJSON guards the lean encoder's shape test: setting
// any Request or Response field outside op/id/label/self and
// ok/id/label/error — including fields added after this test — must
// route the frame through encoding/json, never drop the field.
func TestNonNavFieldsTakeJSON(t *testing.T) {
	lean := map[string]bool{"Op": true, "ID": true, "Label": true, "Self": true, "OK": true, "Err": true}
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
	} {
		f.Add(OpSelect, "a<b&c", uint64(9), true, []byte(p))
	}
	f.Fuzz(func(t *testing.T, op, label string, id uint64, flag bool, payload []byte) {
		cmd := Cmd{Op: op, ID: id, Label: label, Self: flag}
		nr := NavResult{OK: !flag, ID: id, Label: label, Err: op}
		for _, v := range []any{Request{Cmd: cmd}, Response{NavResult: nr}} {
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
		leanResp, jsonResp := Response{NavResult: nr}, Response{NavResult: nr}
		leanErr, jsonErr = decodeFrame(payload, &leanResp), json.Unmarshal(payload, &jsonResp)
		if fmt.Sprint(leanErr) != fmt.Sprint(jsonErr) || !reflect.DeepEqual(leanResp, jsonResp) {
			t.Fatalf("response %q: lean %+v (%v), json %+v (%v)", payload, leanResp, leanErr, jsonResp, jsonErr)
		}
	})
}

// TestServerNavFrameZeroAllocs pins the session loop's codec work for a
// warm navigation: reading a right frame and writing its result
// allocate nothing.
func TestServerNavFrameZeroAllocs(t *testing.T) {
	var in bytes.Buffer
	if err := WriteFrame(&in, Request{Cmd: Cmd{Op: OpRight, ID: 4711}}); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(in.Bytes())
	br, bw := bufio.NewReader(rd), bufio.NewWriter(io.Discard)
	var req Request
	resp := Response{NavResult: NavResult{OK: true, ID: 4712}}
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(in.Bytes())
		br.Reset(rd)
		if err := ReadRequest(br, &req); err != nil || req.Op != OpRight || req.ID != 4711 {
			t.Fatalf("ReadRequest: %+v, %v", req, err)
		}
		if err := WriteResponse(bw, &resp); err != nil || bw.Flush() != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("server-side right frame: %.1f allocs, want 0", allocs)
	}
}

// TestClientWarmFetchAllocs pins the client side: a Fetch answered by a
// server allocates at most the label it returns.
func TestClientWarmFetchAllocs(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer sconn.Close()
	go func() {
		br, bw := bufio.NewReader(sconn), bufio.NewWriter(sconn)
		var req Request
		var resp Response
		for ReadRequest(br, &req) == nil && req.Op != OpClose {
			resp = Response{NavResult: NavResult{OK: true, ID: 1}}
			if req.Op == OpFetch {
				resp = Response{NavResult: NavResult{OK: true, Label: "med_home"}}
			}
			if WriteResponse(bw, &resp) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	c := NewClient(cconn)
	defer c.Close()
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if l, err := c.Fetch(root); err != nil || l != "med_home" {
			t.Fatalf("Fetch: %q, %v", l, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm client Fetch: %.1f allocs, want ≤ 1 (the label)", allocs)
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
