package core

import "mix/internal/algebra"

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

// atomKeyFP is the bucket key: 16 bytes per key variable,
// hashing the value's *atomic form* (AtomFingerprint), never its
// structure — atom equality is what Cmp applies to mixed element/leaf
// comparisons, so the bucket key stays a necessary condition for the
// join condition. Collisions are harmless here (unlike operator keys):
// the full condition is re-evaluated on every probed pair anyway, so a
// colliding pair merely costs one wasted evaluation.
func atomKeyFP(b *binding, vars []string) (string, error) {
	raw := make([]byte, 0, len(vars)*16)
	for _, v := range vars {
		t, err := b.Value(v)
		if err != nil {
			return "", err
		}
		raw = atomFP(t).AppendKey(raw)
	}
	return string(raw), nil
}

// compileJoin compiles a join. With JoinCache the inner input is
// derived at most once: into the hash index when the condition implies
// a bridging equality, into a log all outer bindings replay otherwise
// (Section 3: "the nested-loops join operator stores the parts of the
// inner argument of the loop"). Without it the nested loops re-derive
// the inner from its sources for every outer binding (the E6 ablation);
// the hash index *is* an inner cache, so it needs JoinCache.
func (c *compiler) compileJoin(op *algebra.Join) (builder, error) {
	left, err := c.compile(op.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.compile(op.Right)
	if err != nil {
		return nil, err
	}
	cond, cache := op.Cond, c.e.opts.JoinCache
	if lk, rk, ok := equiJoinKeys(op); ok && cache {
		return func() (cursor, error) {
			lc, err := left()
			if err != nil {
				return nil, err
			}
			idx := &hashIndex{right: right, keys: rk, buckets: map[string][]*binding{}}
			return &hashJoinCursor{out: lc, idx: idx, cond: cond, lkeys: lk}, nil
		}, nil
	}
	return func() (cursor, error) {
		lc, err := left()
		if err != nil {
			return nil, err
		}
		j := &nlJoinCursor{out: lc, inner: &lazyLog{in: right}, cond: cond}
		if !cache {
			j.rederive = right
		}
		return j, nil
	}, nil
}

// nlJoinCursor is the nested-loops join: each outer binding steps
// through the inner log, evaluating the condition per pair. With
// JoinCache the one log is the inner cache; without it (rederive set)
// every outer binding gets a fresh log over a fresh inner derivation.
type nlJoinCursor struct {
	out      cursor
	inner    *lazyLog
	rederive builder
	cond     algebra.Cond
	lb       *binding // current outer binding
	ipos     int      // position in the inner log
}

func (j *nlJoinCursor) next() (*binding, error) {
	for {
		if j.lb == nil {
			lb, err := j.out.next()
			if lb == nil {
				return nil, err
			}
			j.lb, j.ipos = lb, 0
		}
		log, err := j.inner.get()
		if err != nil {
			return nil, err
		}
		rb, err := log.at(j.ipos)
		if err != nil {
			return nil, err
		}
		if rb == nil {
			j.lb = nil
			if j.rederive != nil {
				j.inner = &lazyLog{in: j.rederive}
			}
			continue
		}
		merged := merge(j.lb, rb)
		j.ipos++
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
// probe re-reads a (possibly longer) prefix of the same bucket.
type hashIndex struct {
	right   builder
	src     cursor // nil until first advance, nil again when done
	keys    []string
	buckets map[string][]*binding
	done    bool
}

// advance ingests the next inner binding, reporting whether there was
// one. A keying failure keeps the already-filed prefix and terminates
// the index.
func (h *hashIndex) advance() (bool, error) {
	if h.done {
		return false, nil
	}
	if h.src == nil {
		c, err := h.right()
		if err != nil {
			h.done = true
			return false, err
		}
		h.src = c
	}
	b, err := h.src.next()
	if b == nil {
		h.done, h.src = true, nil
		return false, err
	}
	k, err := atomKeyFP(b, h.keys)
	if err != nil {
		h.done, h.src = true, nil
		return false, err
	}
	h.buckets[k] = append(h.buckets[k], b)
	loggedBindings.Add(1)
	return true, nil
}

// hashJoinCursor probes the shared index: each outer binding scans
// its bucket, advancing the index one inner binding at a time when the
// indexed prefix runs out.
type hashJoinCursor struct {
	out   cursor
	idx   *hashIndex
	cond  algebra.Cond
	lkeys []string
	lb    *binding // current outer binding
	key   string   // its bucket key
	pos   int      // next unexamined position in its bucket
}

func (c *hashJoinCursor) next() (*binding, error) {
	for {
		if c.lb == nil {
			lb, err := c.out.next()
			if lb == nil {
				return nil, err
			}
			k, err := atomKeyFP(lb, c.lkeys)
			if err != nil {
				return nil, err
			}
			c.lb, c.key, c.pos = lb, k, 0
		}
		if bucket := c.idx.buckets[c.key]; c.pos < len(bucket) {
			merged := merge(c.lb, bucket[c.pos])
			c.pos++
			ok, err := c.cond.Eval(merged)
			if err != nil {
				return nil, err
			}
			if ok {
				return merged, nil
			}
			continue
		}
		more, err := c.idx.advance()
		if err != nil {
			return nil, err
		}
		if !more {
			c.lb = nil
		}
	}
}

func (c *hashJoinCursor) fork() cursor {
	f := *c
	f.out = c.out.fork()
	return &f
}
