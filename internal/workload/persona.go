package workload

import (
	"fmt"
	"math/rand"

	"mix/internal/nav"
	"mix/internal/xmltree"
)

// Client personas: scripted region-level navigation behaviors over a
// virtual answer document, replayed by the bench spine's sessions and
// the server's drill-walk tests. A persona is a Script — an ordered list
// of region visits — generated deterministically from a seed, so two
// runs (e.g. prefetch on vs off) replay byte-identical navigation.
//
// The three personas:
//
//   - deep-drill reads every region in order and explores it fully —
//     the client the drill walk ships whole regions to;
//   - glance skims region tops in order, skipping some, and never
//     descends below a region top;
//   - select-heavy jumps between regions by label selection.

// Step is one region visit of a scripted persona.
type Step struct {
	// Region is the 0-based top-level region index to visit.
	Region int
	// Deep explores the region's whole subtree; false fetches the
	// region's top label only (a glance that never descends).
	Deep bool
	// Select reaches the region by a label-select jump instead of a
	// right-scan over the preceding region tops.
	Select bool
}

// DeepDrillScript is the sequential reader: every region 0..regions-1
// in order, fully explored. The seed is accepted for signature
// uniformity with the other personas; the script is order-determined.
func DeepDrillScript(regions int, seed int64) []Step {
	_ = seed
	out := make([]Step, 0, regions)
	for i := 0; i < regions; i++ {
		out = append(out, Step{Region: i, Deep: true})
	}
	return out
}

// GlanceScript is the skimmer: region tops in order, shallow, with
// roughly a third of the regions skipped (seeded).
func GlanceScript(regions int, seed int64) []Step {
	r := rand.New(rand.NewSource(seed))
	out := make([]Step, 0, regions)
	for i := 0; i < regions; i++ {
		if r.Intn(3) == 0 {
			continue
		}
		out = append(out, Step{Region: i})
	}
	if len(out) == 0 {
		out = append(out, Step{Region: 0})
	}
	return out
}

// SelectHeavyScript is the jumper: regions visits to seeded random
// regions reached by label selection, shallow.
func SelectHeavyScript(regions int, seed int64) []Step {
	r := rand.New(rand.NewSource(seed))
	out := make([]Step, 0, regions)
	for i := 0; i < regions; i++ {
		out = append(out, Step{Region: r.Intn(regions), Select: true})
	}
	return out
}

// Selector is the optional label-select jump of a navigable document.
// vxdp.Client implements it; plain nav.Documents need not.
type Selector interface {
	SelectLabel(p nav.ID, label string, fromSelf bool) (nav.ID, error)
}

// ReplayPersona drives a persona script over a document using only the
// primitive navigation set (d, r, f, and select when the document
// offers it), so the same script replays byte-identically against a
// VXDP session and against a local oracle document. After each step it
// calls after (if non-nil) with the step index and the marshaled
// explored part — the subtree for deep steps, the top label otherwise —
// letting the caller interleave measurements between steps. Replaying a script whose regions exceed the document's
// top-level width is an error.
func ReplayPersona(doc nav.Document, script []Step, after func(step int, explored string) error) error {
	root, err := doc.Root()
	if err != nil {
		return err
	}
	var cur nav.ID
	pos := -1
	for i, st := range script {
		if st.Region < 0 {
			return fmt.Errorf("workload: step %d targets region %d", i, st.Region)
		}
		// Reach the target region top by a d,(r)* scan, restarting from
		// the root when the script moves backwards.
		if cur == nil || st.Region < pos {
			if cur, err = doc.Down(root); err != nil {
				return err
			}
			pos = 0
		}
		for pos < st.Region {
			if cur, err = doc.Right(cur); err != nil {
				return err
			}
			if cur == nil {
				return fmt.Errorf("workload: step %d targets region %d past the last region", i, st.Region)
			}
			pos++
		}
		var explored string
		if st.Deep {
			sub, err := nav.Subtree(doc, cur)
			if err != nil {
				return err
			}
			explored = xmltree.MarshalXML(sub)
		} else {
			label, err := doc.Fetch(cur)
			if err != nil {
				return err
			}
			if st.Select {
				// Land on the same node through the select op, so the
				// server sees the jump.
				if sel, ok := doc.(Selector); ok {
					p, err := sel.SelectLabel(cur, label, true)
					if err != nil {
						return err
					}
					if p != nil {
						cur = p
					}
				}
			}
			explored = label
		}
		if after != nil {
			if err := after(i, explored); err != nil {
				return err
			}
		}
	}
	return nil
}

// PersonaScript dispatches a persona by name: "deep-drill", "glance",
// or "select-heavy". Unknown names return nil.
func PersonaScript(name string, regions int, seed int64) []Step {
	switch name {
	case "deep-drill":
		return DeepDrillScript(regions, seed)
	case "glance":
		return GlanceScript(regions, seed)
	case "select-heavy":
		return SelectHeavyScript(regions, seed)
	}
	return nil
}
