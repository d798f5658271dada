package vxdp

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mix/internal/regioncache"
)

// FuzzReadFrame: no byte stream may panic the codec; truncated,
// malformed, and oversized frames must surface as errors.
func FuzzReadFrame(f *testing.F) {
	// A valid frame.
	var ok bytes.Buffer
	if err := WriteFrame(&ok, Request{Cmd: Cmd{Op: OpDown, ID: 7}}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	// Truncated header, truncated payload, hostile length prefix,
	// valid length with garbage JSON.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 9, '{'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{0, 0, 0, 2, 'n', 'o'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		_ = ReadFrame(bytes.NewReader(data), &req) // must not panic
	})
}

// FuzzRegionCodec: the cluster's L2 region frames — region_get /
// region_put requests and region-bearing responses — must decode
// arbitrary bytes without panicking, and every region tree that decodes
// must survive a re-encode round trip. Regions come from *peers*, so
// the codec is a trust boundary even inside one fleet.
func FuzzRegionCodec(f *testing.F) {
	seed := func(v any) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	key := RegionKey{Gen: 3, Registry: 2, Name: "homeview", Fingerprint: "S0:p(v0,v1)"}
	tree := &regioncache.Region{Known: true, Label: "a", Kids: []*regioncache.Region{
		{Known: true, Label: "b", Complete: true},
		{Kids: []*regioncache.Region{{Known: true, Label: "c"}}},
	}}
	seed(Request{Cmd: Cmd{Op: OpRegionGet}, Region: &key})
	seed(Request{Cmd: Cmd{Op: OpRegionPut}, Region: &key, Tree: tree})
	seed(Request{Cmd: Cmd{Op: OpInvalidate}, Gen: 41})
	seed(Response{NavResult: NavResult{OK: true}, Tree: tree, Gen: 3})
	// Hostile shapes: deep nesting, type confusion on the kids array.
	f.Add([]byte{0, 0, 0, 30, '{', '"', 't', 'r', 'e', 'e', '"', ':', '{', '"', 'c', '"', ':', '[', '{', '"', 'c', '"', ':', '[', '{', '}', ']', '}', ']', '}', '}'})
	f.Add([]byte{0, 0, 0, 14, '{', '"', 't', 'r', 'e', 'e', '"', ':', '{', '"', 'c', '"', ':', '1', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := ReadFrame(bytes.NewReader(data), &req); err == nil && req.Tree != nil {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, Request{Cmd: req.Cmd, Region: req.Region, Tree: req.Tree}); err == nil {
				var rt Request
				if err := ReadFrame(&buf, &rt); err != nil {
					t.Fatalf("re-decode of re-encoded region failed: %v", err)
				}
				if !rt.Tree.Equal(req.Tree) {
					t.Fatal("region tree not stable under re-encode")
				}
			}
		}
		var resp Response
		_ = ReadFrame(bytes.NewReader(data), &resp) // must not panic
	})
}

// TestReadFrameRejectsHostileLength: a length prefix beyond MaxFrame is
// rejected before any allocation or read of the payload.
func TestReadFrameRejectsHostileLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var req Request
	err := ReadFrame(bytes.NewReader(hdr[:]), &req)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

// TestWriteFrameRejectsOversizedPayload: the writer enforces the same
// cap, so a server cannot emit a frame its peer must refuse.
func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	big := Request{Query: strings.Repeat("x", MaxFrame)}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err == nil {
		t.Fatal("oversized frame written")
	}
}
