package main

import (
	"io"
	"strings"
	"testing"

	"mix/internal/mediator"
	"mix/internal/trace"
	"mix/internal/workload"
)

func testResult(t *testing.T) *mediator.Element {
	t.Helper()
	homes, schools := workload.HomesSchools(5, 5, 2, 3)
	m := mediator.New(mediator.DefaultOptions())
	m.RegisterTree("homesSrc", homes)
	m.RegisterTree("schoolsSrc", schools)
	res, err := m.Query(`
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`)
	if err != nil {
		t.Fatal(err)
	}
	root, err := res.Root()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestInteractSession(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("d\nf\nd\nt\nu\nr\ns home\nu\nu\nbogus\n?\nq\n")
	if err := interact(testResult(t), in, &out, nil); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"at <answer>", "at <med_home>", "at <home>", "<addr>",
		"unknown command", "d=down",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("session output missing %q:\n%s", want, s)
		}
	}
}

func TestInteractBoundaries(t *testing.T) {
	var out strings.Builder
	// up at root, right at root, down to a leaf, select miss.
	in := strings.NewReader("u\nr\ns nosuch\nd\nd\nd\nd\nd\nq\n")
	if err := interact(testResult(t), in, &out, nil); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"⊥ (at the root)", "⊥ (no right sibling)", "⊥ (no child", "⊥ (leaf)"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

// TestInteractTraceHook drives the -trace setup: a traced engine with a
// trace-wrapped client document and the printForest after hook, so each
// interactive command is followed by its fan-out tree.
func TestInteractTraceHook(t *testing.T) {
	homes, schools := workload.HomesSchools(5, 5, 2, 3)
	m := mediator.New(mediator.DefaultOptions())
	rec := trace.New()
	m.RegisterTree("homesSrc", homes)
	m.RegisterTree("schoolsSrc", schools)
	res, err := m.Query(`
CONSTRUCT <answer> <med_home> $H $S {$S} </med_home> {$H} </answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2 AND $V1 = $V2`)
	if err != nil {
		t.Fatal(err)
	}
	root, err := mediator.Wrap(trace.NewDoc(res.TracedDocument(rec), trace.ClientLabel, rec))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	after := func(w io.Writer) { printForest(w, rec.Take()) }
	if err := interact(root, strings.NewReader("d\nf\nq\n"), &out, after); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{trace.ClientLabel + " d", "src:", "source navigations:"} {
		if !strings.Contains(s, want) {
			t.Errorf("trace hook output missing %q:\n%s", want, s)
		}
	}
}

func TestInteractEOF(t *testing.T) {
	var out strings.Builder
	if err := interact(testResult(t), strings.NewReader(""), &out, nil); err != nil {
		t.Fatal(err)
	}
}
