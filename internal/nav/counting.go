package nav

import "mix/internal/metrics"

// CountingDoc wraps a Document and counts every navigation command
// answered by it. Placing a CountingDoc at a source boundary measures
// exactly the "source navigations" of the paper's navigational-
// complexity definition; placing one in front of a lazy mediator
// measures client navigations.
type CountingDoc struct {
	Doc      Document
	Counters *metrics.Counters
}

// NewCountingDoc wraps doc with fresh counters.
func NewCountingDoc(doc Document) *CountingDoc {
	return &CountingDoc{Doc: doc, Counters: &metrics.Counters{}}
}

// Root implements Document.
func (c *CountingDoc) Root() (ID, error) {
	c.Counters.Root.Add(1)
	return c.Doc.Root()
}

// Down implements Document.
func (c *CountingDoc) Down(p ID) (ID, error) {
	c.Counters.Down.Add(1)
	return c.Doc.Down(p)
}

// Right implements Document.
func (c *CountingDoc) Right(p ID) (ID, error) {
	c.Counters.Right.Add(1)
	return c.Doc.Right(p)
}

// Fetch implements Document.
func (c *CountingDoc) Fetch(p ID) (string, error) {
	c.Counters.Fetch.Add(1)
	return c.Doc.Fetch(p)
}

// Unwrap exposes the wrapped document to capability probes
// (SelectorOf): counting does not change the navigation command set.
func (c *CountingDoc) Unwrap() Document { return c.Doc }

// SelectRight bills a single native select command iff the wrapped
// document answers select(σ) natively (the SelectorOf probe). Otherwise
// it falls back to the generic scan, whose individual r/f commands are
// counted instead — precisely the complexity difference Section 2
// attributes to extending NC.
func (c *CountingDoc) SelectRight(p ID, sigma Predicate, fromSelf bool) (ID, error) {
	if s, ok := SelectorOf(c.Doc); ok {
		c.Counters.Select.Add(1)
		return s.SelectRight(p, sigma, fromSelf)
	}
	// Generic scan over the *counting* document so each hop is billed.
	cur := p
	if !fromSelf {
		next, err := c.Right(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	for cur != nil {
		l, err := c.Fetch(cur)
		if err != nil {
			return nil, err
		}
		if sigma(l) {
			return cur, nil
		}
		next, err := c.Right(cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return nil, nil
}
