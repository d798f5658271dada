package core

import (
	"errors"

	"mix/internal/nav"
	"mix/internal/regioncache"
)

// This file is the derive-ahead of the drill walk (DESIGN.md §15): when
// a client first descends into a region of the answer the region cache
// does not hold, the server derives the whole region on the client's
// own document before answering, so one read-ahead window ships it.

// PrefetchBudget bounds one walk. Zero fields mean unbounded.
type PrefetchBudget struct {
	// MaxNavs caps the navigations the walk issues at the answer
	// boundary. Each drives at most one pull of the operator pipeline;
	// a cached region costs none.
	MaxNavs int64
	// MaxBytes caps the label bytes the walk fetches (an upper bound on
	// the cache bytes it can publish).
	MaxBytes int64
}

// RegionKey returns the full region-cache key of this query's answer
// document — the identity its cached regions and its cluster routing
// share.
func (q *Query) RegionKey() regioncache.Key {
	return regioncache.Key{
		Generation:  q.eng.cacheGen,
		Registry:    q.regVer,
		Name:        q.cacheName,
		Fingerprint: q.fingerprint,
	}
}

// errBudget distinguishes budget exhaustion from real failures inside
// the walk.
var errBudget = errors.New("core: walk budget exhausted")

// regionWalk carries the per-walk state: the document, the budget and
// what the walk has spent of it.
type regionWalk struct {
	doc         nav.Document
	budget      PrefetchBudget
	navs, bytes int64
}

// check gates every navigation on the two budgets, and counts the
// navigation it lets through.
func (w *regionWalk) check() error {
	if w.budget.MaxNavs > 0 && w.navs >= w.budget.MaxNavs {
		return errBudget
	}
	if w.budget.MaxBytes > 0 && w.bytes >= w.budget.MaxBytes {
		return errBudget
	}
	w.navs++
	return nil
}

func (w *regionWalk) fetch(p nav.ID) error {
	if err := w.check(); err != nil {
		return err
	}
	l, err := w.doc.Fetch(p)
	w.bytes += int64(len(l))
	return err
}

// drill explores the subtree under p: its label, then every descendant.
func (w *regionWalk) drill(p nav.ID) error {
	if err := w.fetch(p); err != nil {
		return err
	}
	if err := w.check(); err != nil {
		return err
	}
	c, err := w.doc.Down(p)
	if err != nil {
		return err
	}
	for c != nil {
		if err := w.drill(c); err != nil {
			return err
		}
		if err := w.check(); err != nil {
			return err
		}
		if c, err = w.doc.Right(c); err != nil {
			return err
		}
	}
	return nil
}

// WalkRegion derives the whole subtree under top on doc, the document
// of the query a client navigates, up to budget. It runs on the
// caller's goroutine, so what it derives is traced and billed by doc
// like any other demand navigation. A walk the budget stops is not an
// error; whatever it derived stays derived.
func WalkRegion(doc nav.Document, top nav.ID, budget PrefetchBudget) error {
	w := &regionWalk{doc: doc, budget: budget}
	if err := w.drill(top); !errors.Is(err, errBudget) {
		return err
	}
	return nil
}
