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
// arbitrary bytes without panicking, and every region that decodes,
// whatever its links say (back, self and shared links included), must
// merge into a populated entry without erasing a label, shortening a
// known child prefix or clearing a complete bit. Regions come from
// *peers*, so the codec and the merge are a trust boundary even inside
// one fleet.
func FuzzRegionCodec(f *testing.F) {
	seed := func(v any) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, v); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	key := RegionKey{Gen: 3, Registry: 2, Name: "homeview", Fingerprint: "S0:p(v0,v1)"}
	put := func(r regioncache.Region) {
		seed(Request{Cmd: Cmd{Op: OpRegionPut}, Region: &key, Tree: &r})
	}
	seed(Request{Cmd: Cmd{Op: OpRegionGet}, Region: &key})
	put(fuzzEntryRegion)
	seed(Request{Cmd: Cmd{Op: OpInvalidate}, Gen: 41})
	seed(Response{NavResult: NavResult{OK: true}, Tree: &fuzzEntryRegion, Gen: 3})
	// A fuller region: new labels, a third child of the complete list,
	// children of an open one.
	put(regioncache.Region{
		{Label: "A", Down: 1, Right: WinNone},
		{Label: "B", Down: 2, Right: 5},
		{Label: "x", Down: WinNone, Right: 3},
		{Label: "y", Down: WinNone, Right: 4},
		{Label: "z", Down: WinNone, Right: WinNone},
		{Label: "c", Down: 6, Right: WinNone},
		{Label: "d", Down: WinNone, Right: WinNone},
	})
	// Back, self and shared links.
	put(regioncache.Region{
		{Label: "a", Down: 1, Right: 0},
		{Label: "b", Down: 1, Right: 0},
		{Label: "c", Down: 0, Right: 2},
	})
	put(regioncache.Region{
		{Label: "a", Down: 1, Right: WinNone},
		{Label: "b", Down: 2, Right: 3},
		{Label: "x", Down: 3, Right: 3},
		{Label: "c", Down: 2, Right: 1},
	})
	// Type confusion: a recursive tree, a number, a link out of range.
	for _, p := range []string{`{"tree":{"c":[{"c":[{}]}]}}`, `{"tree":1}`, `{"tree":[{"d":1e10}]}`} {
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(p))), p...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := ReadFrame(bytes.NewReader(data), &req); err == nil && req.Tree != nil {
			checkMergeExtends(t, req.Tree)
		}
		var resp Response
		if err := ReadFrame(bytes.NewReader(data), &resp); err == nil && resp.Tree != nil {
			checkMergeExtends(t, resp.Tree)
		}
	})
}

// fuzzEntryRegion populates FuzzRegionCodec's entry: a root a with
// children b and c, b's list complete with x and a child whose label is
// unknown, the root's list open after c.
var fuzzEntryRegion = regioncache.Region{
	{Label: "a", Down: 1, Right: WinNone},
	{Label: "b", Down: 2, Right: 4},
	{Label: "x", Down: WinOut, Right: 3},
	{Unknown: true, Down: WinOut, Right: WinNone},
	{Label: "c", Down: WinOut, Right: WinOut},
}

// checkMergeExtends merges r into an entry populated with
// fuzzEntryRegion and checks the entry afterwards knows everything it
// knew before.
func checkMergeExtends(t *testing.T, r *regioncache.Region) {
	t.Helper()
	e := regioncache.New(0).Entry("v", "fp", 1)
	e.Merge(&fuzzEntryRegion)
	before := readRegion(t, *e.Export(), 0)
	e.Merge(r)
	if after := readRegion(t, *e.Export(), 0); !extendsKnown(after, before) {
		t.Fatalf("merging %+v lost knowledge: now %+v", *r, *e.Export())
	}
}

// known is an exported region read back as a tree.
type known struct {
	label         string
	labeled, ends bool
	kids          []*known
}

// readRegion reads the exported region r from node i, following its
// links; each must point forward, as an export's do.
func readRegion(t *testing.T, r regioncache.Region, i int) *known {
	t.Helper()
	n := &known{label: r[i].Label, labeled: !r[i].Unknown, ends: r[i].Down == WinNone}
	for k, prev := r[i].Down, int32(i); k >= 0; k = r[k].Right {
		if k <= prev || int(k) >= len(r) {
			t.Fatalf("export links node %d to %d: %+v", prev, k, r)
		}
		n.kids = append(n.kids, readRegion(t, r, int(k)))
		n.ends = r[k].Right == WinNone
		prev = k
	}
	return n
}

// extendsKnown reports whether a knows everything b knows.
func extendsKnown(a, b *known) bool {
	if b.labeled && (!a.labeled || a.label != b.label) ||
		b.ends && (!a.ends || len(a.kids) != len(b.kids)) ||
		len(a.kids) < len(b.kids) {
		return false
	}
	for i, k := range b.kids {
		if !extendsKnown(a.kids[i], k) {
			return false
		}
	}
	return true
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
