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
// preserves it: the index ingests the inner input one pull at a time
// (one binding under client demand), only when a probe exhausts the
// already-indexed prefix of its bucket. A query whose client never
// forces the join never builds the index; a client that stops after the
// first answer indexes only as much of the inner input as that answer
// needed.

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
func (c *compiler) compileJoin(op *algebra.Join) (bbuilder, error) {
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
		return func() (bcursor, error) {
			lc, err := left()
			if err != nil {
				return nil, err
			}
			idx := &bHashIndex{right: right, keys: rk, buckets: map[string][]*binding{}}
			return &bHashJoinCursor{out: lc, idx: idx, cond: cond, lkeys: lk}, nil
		}, nil
	}
	return func() (bcursor, error) {
		lc, err := left()
		if err != nil {
			return nil, err
		}
		j := &nlJoinBCursor{out: lc, inner: &lazyLog{in: right}, cond: cond}
		if !cache {
			j.rederive = right
		}
		return j, nil
	}, nil
}

// nlJoinBCursor is the nested-loops join: each outer binding steps
// through the inner log, evaluating the condition per pair. With
// JoinCache the one log is the inner cache; without it (rederive set)
// every outer binding gets a fresh log over a fresh inner derivation.
type nlJoinBCursor struct {
	out      bcursor
	inner    *lazyLog
	rederive bbuilder
	cond     algebra.Cond
	pend     []*binding // buffered outer bindings
	pi       int
	lb       *binding // current outer binding
	ipos     int      // position in the inner log
	obuf     []*binding
	err      error
	done     bool
}

func (j *nlJoinBCursor) bnext(want int) ([]*binding, error) {
	if j.err != nil {
		return nil, j.err
	}
	j.obuf = j.obuf[:0]
	want = clampWant(want)
	for len(j.obuf) < want {
		if j.lb != nil {
			log, err := j.inner.get()
			if err != nil {
				return j.fail(err)
			}
			rb, err := log.at(j.ipos, want)
			if err != nil {
				return j.fail(err)
			}
			if rb == nil {
				j.lb, j.ipos = nil, 0
				if j.rederive != nil {
					j.inner = &lazyLog{in: j.rederive}
				}
				continue
			}
			merged := merge(j.lb, rb)
			j.ipos++
			ok, err := j.cond.Eval(merged)
			if err != nil {
				return j.fail(err)
			}
			if ok {
				j.obuf = append(j.obuf, merged)
			}
			continue
		}
		if j.pi >= len(j.pend) {
			if j.done {
				break
			}
			bs, err := j.out.bnext(want)
			if len(bs) == 0 {
				if err != nil {
					return j.fail(err)
				}
				j.done = true
				break
			}
			j.pend = append(j.pend[:0], bs...)
			j.pi = 0
		}
		j.lb, j.ipos = j.pend[j.pi], 0
		j.pi++
	}
	if len(j.obuf) > 0 {
		return j.obuf, nil
	}
	return nil, nil
}

func (j *nlJoinBCursor) fail(err error) ([]*binding, error) {
	j.err = err
	if len(j.obuf) > 0 {
		return j.obuf, nil
	}
	return nil, err
}

func (j *nlJoinBCursor) fork() bcursor {
	f := *j
	f.out, f.obuf = j.out.fork(), nil
	f.pend, f.pi = append([]*binding(nil), j.pend[j.pi:]...), 0
	if j.rederive != nil {
		f.inner = j.inner.fork()
	}
	return &f
}

// bHashIndex is the incrementally-built index over the inner input,
// derived only on first demand; each advance ingests one inner batch. It
// is shared, mutable state behind the join cursor and its forks — safe
// because buckets only ever grow, in inner order, so a replayed probe
// re-reads a (possibly longer) prefix of the same bucket.
type bHashIndex struct {
	right   bbuilder
	src     bcursor // nil until first advance, nil again when done
	keys    []string
	buckets map[string][]*binding
	done    bool
}

// advance ingests up to want more inner bindings, reporting whether any
// were added. A keying failure keeps the already-filed prefix and
// terminates the index.
func (h *bHashIndex) advance(want int) (bool, error) {
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
	bs, err := h.src.bnext(want)
	if len(bs) == 0 {
		h.done, h.src = true, nil
		return false, err
	}
	for _, b := range bs {
		k, kerr := atomKeyFP(b, h.keys)
		if kerr != nil {
			h.done, h.src = true, nil
			return false, kerr
		}
		h.buckets[k] = append(h.buckets[k], b)
	}
	recordBatch(len(bs))
	return true, nil
}

// bHashJoinCursor probes the shared index with whole outer batches:
// the outer keys are computed in one loop per batch, then each outer
// binding scans its bucket (advancing the index in want-sized steps
// when the indexed prefix runs out).
type bHashJoinCursor struct {
	out   bcursor
	idx   *bHashIndex
	cond  algebra.Cond
	lkeys []string
	pend  []*binding // buffered outer bindings
	kpend []string   // their bucket keys
	pi    int
	lb    *binding // current outer binding
	key   string
	pos   int // next unexamined position in its bucket
	obuf  []*binding
	perr  error // keying error pending after the keyed prefix drains
	err   error
	done  bool
}

func (c *bHashJoinCursor) bnext(want int) ([]*binding, error) {
	if c.err != nil {
		return nil, c.err
	}
	c.obuf = c.obuf[:0]
	want = clampWant(want)
	for len(c.obuf) < want {
		if c.lb != nil {
			bucket := c.idx.buckets[c.key]
			if c.pos < len(bucket) {
				merged := merge(c.lb, bucket[c.pos])
				c.pos++
				ok, err := c.cond.Eval(merged)
				if err != nil {
					return c.fail(err)
				}
				if ok {
					c.obuf = append(c.obuf, merged)
				}
				continue
			}
			more, err := c.idx.advance(want)
			if err != nil {
				return c.fail(err)
			}
			if more {
				continue
			}
			c.lb = nil
			continue
		}
		if c.pi >= len(c.pend) {
			if c.perr != nil {
				return c.fail(c.perr)
			}
			if c.done {
				break
			}
			bs, err := c.out.bnext(want)
			if len(bs) == 0 {
				if err != nil {
					return c.fail(err)
				}
				c.done = true
				break
			}
			c.pend = append(c.pend[:0], bs...)
			c.kpend = c.kpend[:0]
			c.pi = 0
			for _, b := range bs {
				k, kerr := atomKeyFP(b, c.lkeys)
				if kerr != nil {
					c.perr = kerr
					break
				}
				c.kpend = append(c.kpend, k)
			}
			c.pend = c.pend[:len(c.kpend)]
			continue
		}
		c.lb, c.key, c.pos = c.pend[c.pi], c.kpend[c.pi], 0
		c.pi++
	}
	if len(c.obuf) > 0 {
		return c.obuf, nil
	}
	return nil, nil
}

func (c *bHashJoinCursor) fail(err error) ([]*binding, error) {
	c.err = err
	if len(c.obuf) > 0 {
		return c.obuf, nil
	}
	return nil, err
}

func (c *bHashJoinCursor) fork() bcursor {
	f := *c
	f.out, f.obuf = c.out.fork(), nil
	f.pend = append([]*binding(nil), c.pend[c.pi:]...)
	f.kpend, f.pi = append([]string(nil), c.kpend[c.pi:]...), 0
	return &f
}
