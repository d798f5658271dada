// Package buffer implements the generic buffer component of the
// refined VXD architecture (Section 4, Fig. 7/8): it sits between a
// lazy mediator (which speaks fine-grained DOM-VXD navigations) and an
// LXP wrapper (which ships coarse XML fragments), reconciling the two
// granularities.
//
// The buffer maintains an *open tree* — the explored part of the source
// view, with hole nodes for unexplored parts. Navigation commands are
// answered from the buffered tree when possible; when a navigation
// "hits a hole", the buffer issues a fill request and splices the
// returned fragment (which may itself contain holes at arbitrary
// positions, under the liberal protocol) in place of the hole, then
// retries — the recursive d(p)/chase_first(p) algorithm of Fig. 8.
//
// The open tree keeps what arrived rather than copying it: a buffer
// node is a view of the fragment node it stands for, a splice grafts
// only the parts of a fragment that hold a hole, and a closed part
// grafts its child lists as navigation enters them. A closed part is
// also a value: ClosedTree hands it out (nav.TreeHolder), so keys and
// conditions over it read the wrapper's own tree.
//
// The buffer implements nav.Document, so mediators cannot tell a
// buffered remote source from a local tree. It is safe for concurrent
// use, so several engines may navigate one buffer and pay each fill
// once (mediator.RegisterLXP shares it that way), and it enables the
// asynchronous prefetching strategy Section 4
// proposes ("push from below" decoupled from "pull from above") in two
// forms: StartPrefetch launches a background worker that keeps filling
// pending holes while the client navigates, and the scan lookahead
// (EnableLookahead) fetches the next chunk of a sibling scan while the
// client reads the current one.
package buffer

import (
	"errors"
	"fmt"
	"sync"

	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/xmltree"
)

// node is one node of the buffered open tree: a view of the fragment
// node t it stands for, from which it reads its label and, for a hole,
// its identifier. Children are spliced in place as fills arrive, so
// node pointers handed out as nav.IDs stay valid forever.
//
// A node's child list is grafted only when needed: a splice grafts the
// subtrees of a fill that hold a hole (so every hole is known, and
// pending, at once), and a closed subtree stays one node whose list is
// grafted on the first Down into it. t of a closed node is therefore
// the node's whole subtree, which ClosedTree hands out as its value.
type node struct {
	t        *xmltree.Tree // the fragment node; nil for the root hole until get_root answers
	children []*node       // valid once grafted
	parent   *node
	hole     bool
	inFlight bool // a fill for this hole is on the wire
	closed   bool // t's subtree holds no hole
	grafted  bool // children mirrors the node's child list
}

// holeID is the identifier of a hole node ("" for the root hole until
// get_root answers).
func (n *node) holeID() string { return n.t.HoleID() }

// Buffer is an open-tree cache over one LXP session.
//
// Locking discipline: mu guards the tree and the pending list; it is
// *released* while a request is on the wire (the hole is marked
// inFlight so no second request is issued for it), and re-acquired to
// splice. Demanders of an in-flight hole wait on cond.
//
// The session is opened on first use: New sends nothing, and the first
// Root() sends get_root and then fills the root hole. Until get_root
// has answered, the root hole has no identifier (holeID == "").
type Buffer struct {
	srv lxp.Server
	uri string

	mu            sync.Mutex
	cond          *sync.Cond
	root          *node
	pending       []*node // unfilled holes, in discovery order
	fills         int
	prefetchFills int
	roundTrips    int // wire round trips (a batched fill is one trip)
	batchedFills  int // holes filled as part of a multi-hole round trip
	stopped       bool
	slab          []node          // current allocation slab for graft (see newNode)
	open          []*xmltree.Tree // graft's scratch: a fill's open nodes, in document order

	prefetchErrs    int   // prefetch fills that failed
	lastPrefetchErr error // most recent prefetch failure (nil if none)

	lookahead lookaheadState // scan lookahead: off unless EnableLookahead was called

	// Batch, when > 1, coalesces up to this many holes into one
	// fill_many round trip (lxp.FillMany): the chase_first demand path
	// batches sibling holes of the hole it must fill anyway, and the
	// prefetchers batch across the whole pending list. 0 or 1 keeps the
	// one-hole-per-round-trip behavior (and the plain fill message), so
	// the default changes nothing on the wire.
	Batch int

	wg sync.WaitGroup
}

// New returns a buffer over the document uri names at srv. No message
// is exchanged: the session is opened by the first Root(), which is
// where a wrong uri or an unreachable server surfaces. The error result
// is always nil.
func New(srv lxp.Server, uri string) (*Buffer, error) {
	b := &Buffer{srv: srv, uri: uri}
	b.cond = sync.NewCond(&b.mu)
	b.root = &node{hole: true}
	return b, nil
}

// lookaheadState is the state of the one-chunk scan lookahead.
type lookaheadState uint8

const (
	lookaheadOff  lookaheadState = iota // never look ahead (what New leaves)
	lookaheadIdle                       // enabled, none in flight
	lookaheadBusy                       // enabled, the one permitted lookahead fill is on the wire
)

// EnableLookahead turns on the one-chunk scan lookahead: whenever a
// Right has to wait for a fill — the sibling scan crossed a chunk
// boundary — the buffer, once that fill is spliced, fills the next
// unresolved hole under the same parent on a goroutine of its own, so
// the chunk after the one the client is about to read travels while
// the client reads. At most one lookahead is in flight per buffer, a
// lookahead never starts another, and Down never starts one, so a
// scan issues at most one fill it did not ask for per fill it did, and
// a client that only descends issues none. Lookahead fills count as
// PrefetchFills; a failing one is recorded like any prefetch failure
// (see Stats) and the demand path retries the hole if it gets there.
// Call it before serving navigations.
func (b *Buffer) EnableLookahead() {
	b.mu.Lock()
	if b.lookahead == lookaheadOff {
		b.lookahead = lookaheadIdle
	}
	b.mu.Unlock()
}

// Stats is a snapshot of the buffer's fill accounting. Prefetching is
// best-effort — a failure never surfaces on the demand path unless the
// demand path hits it too — so PrefetchErrors and LastPrefetchError are
// how operators find out prefetch has been dying.
type Stats struct {
	Fills             int   // fill requests issued (holes filled)
	DemandFills       int   // fills the client's navigation waited for
	PrefetchFills     int   // fills issued by the prefetchers
	RoundTrips        int   // wire round trips (batched fills share one)
	BatchedFills      int   // holes filled via multi-hole round trips
	PendingHoles      int   // known unexplored holes
	PrefetchErrors    int   // prefetch fills that failed
	LastPrefetchError error // most recent prefetch failure (nil if none)
}

// Stats returns a consistent snapshot of the buffer's accounting, the
// one read of it.
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Stats{
		Fills:             b.fills,
		DemandFills:       b.fills - b.prefetchFills,
		PrefetchFills:     b.prefetchFills,
		RoundTrips:        b.roundTrips,
		BatchedFills:      b.batchedFills,
		PendingHoles:      len(b.pending),
		PrefetchErrors:    b.prefetchErrs,
		LastPrefetchError: b.lastPrefetchErr,
	}
	if b.root.hole {
		s.PendingHoles++
	}
	return s
}

// Root implements nav.Document. The first call opens the session
// (get_root returns the root hole's handle) and fills the root hole;
// concurrent callers wait for the one that got there first. The shipped
// wrappers' root fill carries the first chunk of every child list along
// the root's first-child spine (see lxp.TreeServer), so the first Downs
// from the root send nothing more.
func (b *Buffer) Root() (nav.ID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.root.hole {
		if b.root.inFlight {
			b.cond.Wait()
			continue
		}
		if b.root.t == nil {
			if err := b.getRootLocked(); err != nil {
				return nil, err
			}
			continue
		}
		fills, err := b.fillLocked([]*node{b.root})
		if err != nil {
			return nil, err
		}
		if b.root.hole { // still ours to resolve
			trees := fills[0]
			if len(trees) != 1 || trees[0].IsHole() {
				return nil, &lxp.ProtocolError{HoleID: b.root.holeID(),
					Msg: fmt.Sprintf("root fill must return one element, got %d trees", len(trees))}
			}
			b.root = b.graft(nil, trees, nil)[0]
			b.cond.Broadcast()
		}
	}
	return b.root, nil
}

// nodeChunk sizes the slabs newNode carves buffer nodes from. Slabs
// are replaced, never regrown, so issued *node IDs stay valid.
const nodeChunk = 64

// newNode carves one zeroed node from the current slab. Caller holds
// mu (or, during New, has exclusive access).
func (b *Buffer) newNode() *node {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]node, 0, nodeChunk)
	}
	b.slab = b.slab[:len(b.slab)+1]
	return &b.slab[len(b.slab)-1]
}

// graft turns the trees of one fill into buffer nodes under parent and
// appends them to dst. One post-order pass (markOpen) finds the
// fragment nodes that hold a hole; the graft then descends through
// exactly those, so their holes join pending in document order, and
// leaves every closed subtree one node whose child list enter grafts on
// the first Down into it. Caller holds mu.
func (b *Buffer) graft(dst []*node, trees []*xmltree.Tree, parent *node) []*node {
	for _, t := range trees {
		b.markOpen(t)
	}
	open := b.open
	for _, t := range trees {
		dst = append(dst, b.graftNode(t, parent, &open))
	}
	clear(b.open)
	b.open = b.open[:0]
	return dst
}

// markOpen reports whether t holds a hole, appending every non-hole
// node of t's subtree that does to b.open in document order: a node is
// appended on entry and taken back on exit if nothing under it was open.
func (b *Buffer) markOpen(t *xmltree.Tree) bool {
	if t.IsHole() {
		return true
	}
	at := len(b.open)
	b.open = append(b.open, t)
	open := false
	for _, c := range t.Children {
		if b.markOpen(c) {
			open = true
		}
	}
	if !open {
		b.open = b.open[:at]
	}
	return open
}

// graftNode makes the node for fragment node t. open holds the open
// nodes markOpen found that are still to be grafted, in document order,
// so t is open exactly when it heads the list.
func (b *Buffer) graftNode(t *xmltree.Tree, parent *node, open *[]*xmltree.Tree) *node {
	n := b.newNode()
	n.t, n.parent = t, parent
	switch {
	case t.IsHole():
		n.hole = true
		b.pending = append(b.pending, n)
	case len(*open) > 0 && (*open)[0] == t:
		*open = (*open)[1:]
		n.grafted = true
		n.children = make([]*node, len(t.Children))
		for i, c := range t.Children {
			n.children[i] = b.graftNode(c, n, open)
		}
	default:
		n.closed = true
	}
	return n
}

// enter grafts the child list of a closed node on the first Down into
// it; the children of a closed node are closed. Caller holds mu.
func (b *Buffer) enter(n *node) {
	n.grafted = true
	if len(n.t.Children) == 0 {
		return
	}
	n.children = make([]*node, len(n.t.Children))
	for i, c := range n.t.Children {
		k := b.newNode()
		k.t, k.parent, k.closed = c, n, true
		n.children[i] = k
	}
}

// getRootLocked sends get_root with mu released during the round trip;
// the root hole is flagged inFlight meanwhile. On return mu is held
// again. After a failure the root hole still has no identifier, so the
// next Root() tries again.
func (b *Buffer) getRootLocked() error {
	b.root.inFlight = true
	b.mu.Unlock()
	id, err := b.srv.GetRoot(b.uri)
	if err == nil && id == "" {
		err = errors.New("get_root returned an empty hole identifier")
	}
	b.mu.Lock()
	b.root.inFlight = false
	b.cond.Broadcast()
	if err != nil {
		return fmt.Errorf("buffer: opening %q: %w", b.uri, err)
	}
	b.root.t = xmltree.Hole(id)
	return nil
}

// fillLocked fills holes in one wire round trip with mu released
// during it: a plain fill for one hole, so an unbatched buffer sends
// exactly the pre-batching messages, and one fill_many for several
// (lxp.FillMany). Every hole is flagged inFlight meanwhile, so no
// concurrent duplicate fill is sent, and each result must pass the
// progress rules. On return mu is held again and the flags are
// cleared; the result holds each hole's trees in the order of holes.
// The caller is responsible for splicing.
func (b *Buffer) fillLocked(holes []*node) ([][]*xmltree.Tree, error) {
	ids := make([]string, len(holes))
	for i, h := range holes {
		h.inFlight = true
		ids[i] = h.holeID()
	}
	b.fills += len(holes)
	if len(holes) > 1 {
		b.batchedFills += len(holes)
	}
	b.roundTrips++
	b.mu.Unlock()
	fills := make([][]*xmltree.Tree, len(ids))
	var err error
	if len(ids) == 1 {
		fills[0], err = b.srv.Fill(ids[0])
	} else {
		var res map[string][]*xmltree.Tree
		res, err = lxp.FillMany(b.srv, ids)
		for i, id := range ids {
			fills[i] = res[id]
		}
	}
	for i := 0; err == nil && i < len(ids); i++ {
		err = lxp.ValidateFill(ids[i], fills[i])
	}
	b.mu.Lock()
	for _, h := range holes {
		h.inFlight = false
	}
	if err != nil {
		b.cond.Broadcast()
		return nil, err
	}
	return fills, nil
}

// expand fills the hole child h of parent p and splices the result in
// its place; with batching enabled, other hole children of p ride the
// same round trip (the chase_first frontier is where sibling holes
// accumulate). Caller holds mu. If another goroutine is already filling
// h, expand waits for it instead; filled reports whether this call
// issued a fill of its own.
func (b *Buffer) expand(p *node, h *node) (filled bool, err error) {
	if h.inFlight {
		for h.inFlight {
			b.cond.Wait()
		}
		return false, nil // resolved (or failed) by the other goroutine; caller re-inspects
	}
	if !h.hole {
		return false, nil // already resolved
	}
	group := []*node{h}
	if b.Batch > 1 {
		for _, c := range p.children {
			if len(group) >= b.Batch {
				break
			}
			if c != h && c.hole && !c.inFlight {
				group = append(group, c)
			}
		}
	}
	return true, b.expandGroup(group)
}

// expandGroup fills a set of non-in-flight holes — possibly under
// different parents — in one round trip and splices each result in
// place. Caller holds mu.
func (b *Buffer) expandGroup(group []*node) error {
	fills, err := b.fillLocked(group)
	if err != nil {
		return err
	}
	var firstErr error
	for i, h := range group {
		if !h.hole {
			continue // lost a race; result discarded
		}
		if err := b.splice(h, fills[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	b.cond.Broadcast()
	return firstErr
}

// splice replaces the resolved hole h with the trees its fill returned.
// Caller holds mu.
func (b *Buffer) splice(h *node, trees []*xmltree.Tree) error {
	p := h.parent
	if p == nil {
		return fmt.Errorf("buffer: internal error: splice on the root hole")
	}
	idx := -1
	for i, c := range p.children {
		if c == h {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("buffer: internal error: hole not under its parent")
	}
	nc := make([]*node, 0, len(p.children)-1+len(trees))
	nc = append(nc, p.children[:idx]...)
	nc = b.graft(nc, trees, p)
	nc = append(nc, p.children[idx+1:]...)
	p.children = nc
	h.hole = false // mark resolved for waiters holding the old pointer
	b.removePending(h)
	return b.checkNoAdjacentHoles(p)
}

func (b *Buffer) removePending(h *node) {
	for i, n := range b.pending {
		if n == h {
			b.pending = append(b.pending[:i], b.pending[i+1:]...)
			return
		}
	}
}

// checkNoAdjacentHoles enforces the invariant after splicing: a liberal
// wrapper may place holes anywhere in a fill, but a splice must never
// create two adjacent holes in the buffered tree.
func (b *Buffer) checkNoAdjacentHoles(p *node) error {
	for i := 1; i < len(p.children); i++ {
		if p.children[i].hole && p.children[i-1].hole {
			return &lxp.ProtocolError{HoleID: p.children[i].holeID(),
				Msg: "splice produced adjacent holes"}
		}
	}
	return nil
}

// notePrefetchErr records a best-effort prefetch failure. Caller holds mu.
func (b *Buffer) notePrefetchErr(err error) {
	b.prefetchErrs++
	b.lastPrefetchErr = err
}

// lookAhead starts the scan lookahead after a Right had to wait for a
// fill under p: it fills the first unresolved hole among p's children
// from index from on — the continuation of the chunk just spliced — on
// a goroutine that ends with that fill. Caller holds mu. The hole is
// flagged inFlight before the goroutine exists, so a demander that
// reaches it first waits for this fill instead of sending its own.
func (b *Buffer) lookAhead(p *node, from int) {
	if b.lookahead != lookaheadIdle {
		return
	}
	var h *node
	for _, c := range p.children[from:] {
		if c.hole {
			h = c
			break
		}
	}
	if h == nil || h.inFlight {
		return
	}
	b.lookahead = lookaheadBusy
	h.inFlight = true
	go func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		b.prefetchFills++
		if err := b.expandGroup([]*node{h}); err != nil {
			b.notePrefetchErr(err)
		}
		b.lookahead = lookaheadIdle
	}()
}

// StartPrefetch launches the asynchronous prefetcher: a background
// goroutine that keeps filling pending holes (oldest first, batched
// across parents up to Batch per round trip) while the client
// navigates. Stop it with StopPrefetch; fills already on the wire
// complete. Prefetch errors stop the prefetcher and are recorded (see
// Stats/LastPrefetchError) — the demand path will rediscover a real
// error.
func (b *Buffer) StartPrefetch() {
	b.mu.Lock()
	b.stopped = false
	b.mu.Unlock()
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.mu.Lock()
		defer b.mu.Unlock()
		for {
			if b.stopped {
				return
			}
			maxBatch := b.Batch
			if maxBatch < 1 {
				maxBatch = 1
			}
			var group []*node
			for _, cand := range b.pending {
				if !cand.inFlight && cand.parent != nil {
					group = append(group, cand)
					if len(group) >= maxBatch {
						break
					}
				}
			}
			if len(group) == 0 {
				if len(b.pending) == 0 && !b.root.hole {
					return // fully explored: nothing left to prefetch
				}
				b.cond.Wait()
				continue
			}
			before := b.fills
			if err := b.expandGroup(group); err != nil {
				b.notePrefetchErr(err)
				return
			}
			b.prefetchFills += b.fills - before
		}
	}()
}

// StopPrefetch stops the asynchronous prefetcher and waits for it.
func (b *Buffer) StopPrefetch() {
	b.mu.Lock()
	b.stopped = true
	b.cond.Broadcast()
	b.mu.Unlock()
	b.wg.Wait()
}

func (b *Buffer) id(p nav.ID) (*node, error) {
	n, ok := p.(*node)
	if !ok || n == nil {
		return nil, fmt.Errorf("%w: %T", nav.ErrForeignID, p)
	}
	return n, nil
}

// Down implements nav.Document — the d(p) algorithm of Fig. 8.
func (b *Buffer) Down(p nav.ID) (nav.ID, error) {
	n, err := b.id(p)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !n.grafted {
		b.enter(n)
	}
	for {
		if len(n.children) == 0 {
			return nil, nil // genuine leaf: done
		}
		first := n.children[0]
		if !first.hole {
			return first, nil // regular child: done
		}
		// chase_first: fill the hole; the splice may reveal a real
		// first child, another (nested) hole, or an empty list.
		if _, err := b.expand(n, first); err != nil {
			return nil, err
		}
	}
}

// Right implements nav.Document — the r(p) variant of Fig. 8
// (first_child/right_neighbor swapped).
func (b *Buffer) Right(p nav.ID) (nav.ID, error) {
	n, err := b.id(p)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n.parent == nil {
		return nil, nil
	}
	waited := false // this call had to wait for a fill of its own
	for {
		sibs := n.parent.children
		idx := -1
		for i, c := range sibs {
			if c == n {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("buffer: internal error: node detached from parent")
		}
		if idx+1 >= len(sibs) {
			return nil, nil // no right sibling: done
		}
		next := sibs[idx+1]
		if !next.hole {
			if waited {
				b.lookAhead(n.parent, idx+2)
			}
			return next, nil
		}
		filled, err := b.expand(n.parent, next)
		if err != nil {
			return nil, err
		}
		waited = waited || filled
	}
}

// Fetch implements nav.Document; labels are always local (holes are
// never exposed as nodes).
func (b *Buffer) Fetch(p nav.ID) (string, error) {
	n, err := b.id(p)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if n.hole {
		return "", fmt.Errorf("buffer: internal error: fetch on hole")
	}
	return n.t.Label, nil
}

// ClosedTree implements nav.TreeHolder: the value of a node whose
// subtree arrived without a hole is the fragment subtree the wrapper
// sent, shared and read-only. A node whose fragment held a hole has no
// such tree — its holes were filled in the buffer, not in the fragment
// — and gets nil, even once every hole under it is filled. The closed
// bit is set when the node is made and never changes, so no lock is
// taken.
func (b *Buffer) ClosedTree(p nav.ID) *xmltree.Tree {
	n, ok := p.(*node)
	if !ok || n == nil || !n.closed {
		return nil
	}
	return n.t
}

// Snapshot returns a copy of the current open tree (holes included) for
// inspection: the explored part of the source view.
func (b *Buffer) Snapshot() *xmltree.Tree {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.root == nil {
		return nil
	}
	return snap(b.root)
}

func snap(n *node) *xmltree.Tree {
	switch {
	case n.hole:
		return xmltree.Hole(n.holeID())
	case !n.grafted:
		return n.t.Clone()
	}
	t := &xmltree.Tree{Label: n.t.Label}
	for _, c := range n.children {
		t.Children = append(t.Children, snap(c))
	}
	return t
}
