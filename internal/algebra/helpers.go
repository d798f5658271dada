package algebra

import "mix/internal/xmltree"

// Helper operators used by the XMAS-to-algebra translation and by
// view composition. All three are pure per-binding restructurings
// (bounded browsable).

// WrapList binds Out to the singleton list list[bin.Var] for each
// input binding — the unit of the concatenate fold when translating a
// CONSTRUCT template's item sequence.
type WrapList struct {
	Input Op
	Var   string
	Out   string
}

// OutVars implements Op.
func (w *WrapList) OutVars() []string { return append(w.Input.OutVars(), w.Out) }

func (w *WrapList) appendOp(b []byte) []byte {
	return appendArrow(append(append(b, "wrapList[$"...), w.Var...), w.Out)
}

// Const binds Out to a fixed tree for each input binding (literal
// content in CONSTRUCT templates).
type Const struct {
	Input Op
	Value *xmltree.Tree
	Out   string
}

// OutVars implements Op.
func (c *Const) OutVars() []string { return append(c.Input.OutVars(), c.Out) }

func (c *Const) appendOp(b []byte) []byte {
	return appendArrow(append(append(b, "const["...), c.Value.String()...), c.Out)
}

// Rename renames variable From to To in every binding (view
// composition glue).
type Rename struct {
	Input Op
	From  string
	To    string
}

// OutVars implements Op.
func (r *Rename) OutVars() []string {
	var out []string
	for _, v := range r.Input.OutVars() {
		if v == r.From {
			v = r.To
		}
		out = append(out, v)
	}
	return out
}

func (r *Rename) appendOp(b []byte) []byte {
	return appendArrow(append(append(b, "rename[$"...), r.From...), r.To)
}
