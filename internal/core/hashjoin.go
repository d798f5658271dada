package core

import (
	"mix/internal/algebra"
	"mix/internal/xmltree"
)

// Hash equi-join.
//
// When a Join's condition implies variable equalities (Cond.EquiKeys),
// the inner input does not have to be scanned once per outer binding:
// inner bindings are filed into a hash index keyed on the atomic form of
// their key variables, and each outer binding probes only the bucket its
// own key hashes to. The full original condition is still evaluated on
// every probed pair — the hash key is a *necessary* condition for
// equality (structural tree equality implies equal text content, and
// atomic equality is literally the key), never a sufficient one — so
// residual conjuncts and the element-vs-leaf comparison cases keep their
// exact nested-loops semantics, and the surviving pairs come out in the
// same (outer-major, inner-order) order nested loops produces.
//
// Laziness is preserved the same way the nested-loops inner log
// preserves it: the index ingests the inner input one binding at a
// time, only when a probe exhausts the already-indexed prefix of its
// bucket. A query whose client never forces the join never builds the
// index; a client that stops after the first answer indexes only as
// much of the inner input as that answer needed.

// equiJoinKeys splits the condition's implied equalities into key-variable
// lists for the two sides of the join. Pairs that do not bridge the two
// sides (both variables from one input) are ignored — they are still
// enforced by the residual condition evaluation. ok reports whether at
// least one bridging pair exists.
func equiJoinKeys(op *algebra.Join) (lk, rk []string, ok bool) {
	pairs := op.Cond.EquiKeys()
	if len(pairs) == 0 {
		return nil, nil, false
	}
	lv, rv := varSet(op.Left.OutVars()), varSet(op.Right.OutVars())
	for _, p := range pairs {
		a, b := p[0], p[1]
		switch {
		case lv[a] && rv[b]:
			lk, rk = append(lk, a), append(rk, b)
		case lv[b] && rv[a]:
			lk, rk = append(lk, b), append(rk, a)
		}
	}
	return lk, rk, len(lk) > 0
}

func varSet(vars []string) map[string]bool {
	m := make(map[string]bool, len(vars))
	for _, v := range vars {
		m[v] = true
	}
	return m
}

// atomKey is the bucket key: the fingerprints of the key variables'
// *atomic forms* (AtomFingerprint), never their structure — atom
// equality is what Cmp applies to mixed element/leaf comparisons, so
// the bucket key stays a necessary condition for the join condition.
// A colliding pair costs one evaluation of the condition, which is
// re-evaluated on every probed pair anyway.
func atomKey(b *binding, vars []string) (xmltree.Fingerprint, error) {
	return b.keyBy(atomFP, vars)
}

// compileJoin compiles a join. With JoinCache the inner input is
// derived at most once: into the hash index when the condition implies
// a bridging equality, into an input all outer bindings replay
// otherwise (Section 3: "the nested-loops join operator stores the
// parts of the inner argument of the loop"). An inner that is a chain
// the query shares is the engine's shared input, and its hash index is
// kept with it, so every query of the catalog probes one index. Without
// JoinCache the nested loops re-derive the inner from its sources for
// every outer binding (the E6 ablation); the hash index *is* an inner
// cache, so it needs JoinCache.
func (c *compiler) compileJoin(op *algebra.Join) (builder, error) {
	left, err := c.compile(op.Left)
	if err != nil {
		return nil, err
	}
	cond, cache := op.Cond, c.e.opts.JoinCache
	lk, rk, equi := equiJoinKeys(op)
	shared, err := c.shared(op.Right)
	if err != nil {
		return nil, err
	}
	if shared != nil {
		return func() (cursor, error) {
			lc, err := left()
			if err != nil {
				return nil, err
			}
			if equi {
				return &hashJoinCursor{out: lc, idx: shared.index(rk), cond: cond, lkeys: lk}, nil
			}
			return &nlJoinCursor{out: lc, inner: shared, cond: cond}, nil
		}, nil
	}
	right, err := c.compile(op.Right)
	if err != nil {
		return nil, err
	}
	if equi && cache {
		return func() (cursor, error) {
			lc, err := left()
			if err != nil {
				return nil, err
			}
			idx := &hashIndex{right: right, keys: rk}
			return &hashJoinCursor{out: lc, idx: idx, cond: cond, lkeys: lk}, nil
		}, nil
	}
	return func() (cursor, error) {
		lc, err := left()
		if err != nil {
			return nil, err
		}
		j := &nlJoinCursor{out: lc, inner: newInput(right), cond: cond}
		if !cache {
			j.rederive = right
		}
		return j, nil
	}, nil
}

// nlJoinCursor is the nested-loops join: each outer binding steps
// through the inner input, evaluating the condition per pair. With
// JoinCache the one input is the inner cache; without it (rederive
// set) every outer binding gets a fresh input over a fresh inner
// derivation.
type nlJoinCursor struct {
	out      cursor
	inner    *input
	rederive builder
	cond     algebra.Cond
	lb       *binding // current outer binding
	ipos     logPos   // position in the inner input
}

func (j *nlJoinCursor) next() (*binding, error) {
	for {
		if j.lb == nil {
			lb, err := j.out.next()
			if lb == nil {
				return nil, err
			}
			j.lb, j.ipos = lb, logPos{}
		}
		rb, err := j.inner.next(&j.ipos)
		if err != nil {
			return nil, err
		}
		if rb == nil {
			j.lb = nil
			if j.rederive != nil {
				j.inner = newInput(j.rederive)
			}
			continue
		}
		merged := merge(j.lb, rb)
		ok, err := j.cond.Eval(merged)
		if err != nil {
			return nil, err
		}
		if ok {
			return merged, nil
		}
	}
}

func (j *nlJoinCursor) fork() cursor {
	f := *j
	f.out = j.out.fork()
	if j.rederive != nil {
		f.inner = j.inner.fork()
	}
	return &f
}

// hashIndex is the incrementally-built index over the inner input,
// derived only on first demand; each advance ingests one inner binding.
// It is shared, mutable state behind the join cursor and its forks —
// safe because buckets only ever grow, in inner order, so a replayed
// probe re-reads a (possibly longer) prefix of the same bucket. A
// private index reads its own derivation of the inner (right); the
// index of a shared input (in) reads that input's log and is probed
// under its lock, by the queries of every session.
type hashIndex struct {
	in      *input
	right   builder
	src     cursor // nil until first advance, nil again when done
	keys    []string
	buckets map[xmltree.Fingerprint][]*binding
	done    bool
	err     error // the failure that ended the index, for every later probe
}

// probe returns the binding at position pos of the bucket under key,
// advancing the index until the bucket has it; nil once the inner input
// is exhausted (or the memoized failure).
func (h *hashIndex) probe(key xmltree.Fingerprint, pos int) (*binding, error) {
	if h.in != nil {
		h.in.mu.Lock()
	}
	var b *binding
	var err error
	for {
		if bucket := h.buckets[key]; pos < len(bucket) {
			b = bucket[pos]
			break
		}
		var more bool
		if more, err = h.advance(); !more {
			break
		}
	}
	if h.in != nil {
		h.in.mu.Unlock()
		if err != nil {
			h.in.drop()
		}
	}
	return b, err
}

// advance ingests the next inner binding, reporting whether there was
// one. A failure keeps the already-filed prefix and ends the index.
func (h *hashIndex) advance() (bool, error) {
	if h.done {
		return false, h.err
	}
	if h.src == nil {
		c, err := h.right()
		if err != nil {
			h.done, h.err = true, err
			return false, err
		}
		h.src = c
	}
	b, err := h.src.next()
	if b == nil {
		h.done, h.err, h.src = true, err, nil
		return false, err
	}
	k, err := atomKey(b, h.keys)
	if err != nil {
		h.done, h.err, h.src = true, err, nil
		return false, err
	}
	if h.buckets == nil {
		h.buckets = map[xmltree.Fingerprint][]*binding{}
	}
	h.buckets[k] = append(h.buckets[k], b)
	loggedBindings.Add(1)
	return true, nil
}

// hashJoinCursor probes the index: each outer binding scans its
// bucket, advancing the index one inner binding at a time when the
// indexed prefix runs out.
type hashJoinCursor struct {
	out   cursor
	idx   *hashIndex
	cond  algebra.Cond
	lkeys []string
	lb    *binding            // current outer binding
	key   xmltree.Fingerprint // its bucket key
	pos   int                 // next unexamined position in its bucket
}

func (c *hashJoinCursor) next() (*binding, error) {
	for {
		if c.lb == nil {
			lb, err := c.out.next()
			if lb == nil {
				return nil, err
			}
			k, err := atomKey(lb, c.lkeys)
			if err != nil {
				return nil, err
			}
			c.lb, c.key, c.pos = lb, k, 0
		}
		rb, err := c.idx.probe(c.key, c.pos)
		if err != nil {
			return nil, err
		}
		if rb == nil {
			c.lb = nil
			continue
		}
		c.pos++
		merged := merge(c.lb, rb)
		ok, err := c.cond.Eval(merged)
		if err != nil {
			return nil, err
		}
		if ok {
			return merged, nil
		}
	}
}

func (c *hashJoinCursor) fork() cursor {
	f := *c
	f.out = c.out.fork()
	return &f
}
