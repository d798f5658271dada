package lxp

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mix/internal/xmltree"
)

// FuzzReadFrame: no byte stream may panic the LXP frame readers;
// truncated, malformed, and oversized frames must surface as errors.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	if err := writeRequest(&ok, request{Op: "fill", ID: "0:0"}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())
	f.Add([]byte{0, 0})                          // truncated header
	f.Add([]byte{0, 0, 0, 9, '{'})               // truncated payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})   // hostile length prefix
	f.Add([]byte{0, 0, 0, 2, 'n', 'o'})          // garbage JSON
	f.Add(append([]byte{0, 0, 0, 4}, "null"...)) // JSON null
	var tagged bytes.Buffer
	if err := writeRequest(&tagged, request{Rid: 1 << 40, Op: "fill", ID: "0:0"}); err != nil {
		f.Fatal(err)
	}
	f.Add(tagged.Bytes())
	// a rid no uint64 holds
	f.Add(append([]byte{0, 0, 0, 10}, `{"rid":-1}`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req request
		_ = readRequest(bytes.NewReader(data), &req) // must not panic
		_ = readResponse(bytes.NewReader(data), nil, nil, new(leanResponse))
	})
}

// FuzzParseHoleID: hole identifiers arrive off the wire, so no input
// may panic the parser — and the allocation-free walkHoleID used by
// Fill must agree with the reference parseHoleID on every input.
func FuzzParseHoleID(f *testing.F) {
	for _, seed := range []string{"root", "0/2:5", ":0", "0:", "/:0", "9999999999999999999:0", "0//1:2", "a:b"} {
		f.Add(seed)
	}
	srv := &TreeServer{Tree: deepTree(4, 3)}
	f.Fuzz(func(t *testing.T, id string) {
		path, start, err := parseHoleID(id)
		if err == nil && start < 0 {
			t.Fatalf("parseHoleID(%q) accepted negative start %d", id, start)
		}
		node, _, wstart, werr := srv.walkHoleID(id)
		if err != nil {
			// walkHoleID may also report "stale" where the reference
			// parser succeeds; it must never accept what the parser
			// rejects for being malformed.
			if werr == nil {
				t.Fatalf("walkHoleID(%q) accepted what parseHoleID rejects (%v)", id, err)
			}
			return
		}
		if werr != nil {
			if !strings.Contains(werr.Error(), "stale") {
				t.Fatalf("walkHoleID(%q) = %v, parseHoleID accepts %v/%d", id, werr, path, start)
			}
			return
		}
		// rest is id[:colon] verbatim; on non-canonical input (leading
		// zeros) it differs from pathString(path) but still names the
		// same node, so continuation ids remain self-consistent.
		if wstart != start {
			t.Fatalf("walkHoleID(%q) start = %d, want %d", id, wstart, start)
		}
		want := srv.Tree
		for _, idx := range path {
			want = want.Child(idx)
		}
		if node != want {
			t.Fatalf("walkHoleID(%q) reached the wrong node", id)
		}
	})
}

// deepTree builds a uniform tree of the given depth and fan-out, so
// walkHoleID has real paths to resolve.
func deepTree(depth, fanout int) *xmltree.Tree {
	t := xmltree.Leaf("n")
	if depth > 0 {
		for i := 0; i < fanout; i++ {
			t.Children = append(t.Children, deepTree(depth-1, fanout))
		}
	}
	return t
}

// TestReadFrameRejectsHostileLength: the length prefix is checked
// against maxFrame before the payload is allocated.
func TestReadFrameRejectsHostileLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	var req request
	err := readRequest(bytes.NewReader(hdr[:]), &req)
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}
