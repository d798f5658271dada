package lxp

import "mix/internal/xmltree"

// The encoding/json twin of the codec: conversions between trees and
// the wire structs (wire.go) whose json.Marshal output is, by
// definition, the LXP payload format. The codec tests and fuzzers
// encode and decode through these and compare byte for byte and tree
// for tree against codec.go.

func toWire(t *xmltree.Tree) wireTree {
	w := wireTree{L: t.Label}
	for _, c := range t.Children {
		w.C = append(w.C, toWire(c))
	}
	return w
}

func fromWire(w wireTree) *xmltree.Tree {
	t := &xmltree.Tree{Label: w.L}
	for _, c := range w.C {
		t.Children = append(t.Children, fromWire(c))
	}
	return t
}

// leanFromWire converts a generically-decoded response to tree form.
func leanFromWire(resp response) leanResponse {
	lr := leanResponse{rid: resp.Rid, hole: resp.Hole, err: resp.Err}
	if resp.Trees != nil {
		lr.hasTrees = true
		lr.trees = make([]*xmltree.Tree, len(resp.Trees))
		for i, w := range resp.Trees {
			lr.trees[i] = fromWire(w)
		}
	}
	if resp.Many != nil {
		lr.many = make(map[string][]*xmltree.Tree, len(resp.Many))
		for id, ws := range resp.Many {
			trees := make([]*xmltree.Tree, len(ws))
			for i, w := range ws {
				trees[i] = fromWire(w)
			}
			lr.many[id] = trees
		}
	}
	return lr
}

// wireFromLean converts a tree-level response to wire structs.
func wireFromLean(lr leanResponse) response {
	resp := response{Rid: lr.rid, Hole: lr.hole, Err: lr.err}
	if lr.hasTrees {
		resp.Trees = make([]wireTree, len(lr.trees))
		for i, t := range lr.trees {
			resp.Trees[i] = toWire(t)
		}
	}
	if lr.many != nil {
		resp.Many = make(map[string][]wireTree, len(lr.many))
		for id, trees := range lr.many {
			ws := make([]wireTree, len(trees))
			for i, t := range trees {
				ws[i] = toWire(t)
			}
			resp.Many[id] = ws
		}
	}
	return resp
}
