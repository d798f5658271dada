package pathexpr

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mix/internal/pathexpr/pathexprtest"
)

func TestDFAMatchesAgreeWithNFA(t *testing.T) {
	exprs := []string{
		"a", "_", "a.b", "a|b", "a*", "a+", "a?",
		"a*.x", "(a|b).c", "(a.b)*", "_._", "(a|_)*.z",
		"home.zip._", "a.(b|c)+.d?",
	}
	seqs := [][]string{
		nil,
		{"a"}, {"b"}, {"z"},
		{"a", "b"}, {"a", "x"}, {"a", "a", "x"},
		{"home", "zip", "92093"},
		{"a", "b", "c", "d"},
		{"a", "a", "a", "a", "a", "x"},
	}
	for _, src := range exprs {
		nfa := Compile(MustParse(src))
		dfa := NewDFA(nfa, nil)
		for _, seq := range seqs {
			if got, want := dfa.Matches(seq), nfa.Matches(seq); got != want {
				t.Errorf("%q on %v: dfa=%v nfa=%v", src, seq, got, want)
			}
		}
	}
}

func TestDFAStatewiseEquivalence(t *testing.T) {
	// Step's Accepting/Alive/Descends bits must agree with the NFA at
	// every prefix, not just the final Matches verdict — the lazy
	// descent consults all three at each node.
	nfa := Compile(MustParse("(a|b)*.x.y?"))
	dfa := NewDFA(nfa, nil)
	seq := []string{"a", "b", "a", "x", "y", "z"}
	ns, ds := nfa.Start(), dfa.Start()
	for i, l := range seq {
		ns, ds = nfa.Step(ns, l), dfa.Step(ds.ID, l)
		if nfa.Accepting(ns) != ds.Accepting {
			t.Fatalf("prefix %v: accepting disagrees", seq[:i+1])
		}
		if nfa.Alive(ns) != ds.Alive {
			t.Fatalf("prefix %v: alive disagrees", seq[:i+1])
		}
		if nfa.Descends(ns) != ds.Descends {
			t.Fatalf("prefix %v: descends disagrees", seq[:i+1])
		}
	}
	// After "x.y" the match can only end: accepting, alive, a dead end.
	if s := dfa.Step(dfa.Step(dfa.Start().ID, "x").ID, "y"); !s.Accepting || !s.Alive || s.Descends {
		t.Fatalf("x.y: %+v, want an accepting dead end", s)
	}
}

func TestDFACachesTransitions(t *testing.T) {
	nfa := Compile(MustParse("a*.x"))
	dfa := NewDFA(nfa, nil)
	h0, m0, _ := DFAStats()
	s := dfa.Start().ID
	dfa.Step(s, "a") // miss
	dfa.Step(s, "a") // hit
	dfa.Step(s, "a") // hit
	h1, m1, _ := DFAStats()
	if m1-m0 != 1 {
		t.Errorf("misses = %d, want 1", m1-m0)
	}
	if h1-h0 != 2 {
		t.Errorf("hits = %d, want 2", h1-h0)
	}
}

// TestDFAStartNoAllocs pins that the start state is materialized once,
// at construction: getDescendants asks for it per input binding.
func TestDFAStartNoAllocs(t *testing.T) {
	dfa := NewDFA(Compile(MustParse("(a|b)*.x._")), nil)
	want := dfa.Start()
	if allocs := testing.AllocsPerRun(100, func() {
		if dfa.Start() != want {
			t.Fatal("start state moved")
		}
	}); allocs != 0 {
		t.Errorf("Start allocates %v times per call, want 0", allocs)
	}
}

func TestDFADeadStateSticks(t *testing.T) {
	nfa := Compile(MustParse("a.b"))
	dfa := NewDFA(nfa, nil)
	s := dfa.Step(dfa.Start().ID, "z") // no match possible
	if s.Alive || s.Descends {
		t.Fatalf("dead state reports alive or descending: %+v", s)
	}
	if dfa.Step(s.ID, "a") != s {
		t.Errorf("stepping from the dead state must stay dead")
	}
	if s.Accepting {
		t.Errorf("dead state accepting")
	}
}

func TestDFAConcurrent(t *testing.T) {
	nfa := Compile(MustParse("(a|b)*.x"))
	dfa := NewDFA(nfa, nil)
	labels := []string{"a", "b", "x", "z"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				s := dfa.Start()
				var seq []string
				for j := 0; j < r.Intn(6); j++ {
					l := labels[r.Intn(len(labels))]
					seq = append(seq, l)
					s = dfa.Step(s.ID, l)
				}
				if got, want := s.Accepting, nfa.Matches(seq); got != want {
					t.Errorf("seq %v: dfa=%v nfa=%v", seq, got, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestDFARandomizedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	alphabet := []string{"a", "b", "c", "d"}
	for i := 0; i < 300; i++ {
		src := pathexprtest.Expr(r, 3)
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("pathexprtest.Expr produced unparsable %q: %v", src, err)
		}
		nfa := Compile(e)
		dfa := NewDFA(nfa, nil)
		for j := 0; j < 20; j++ {
			seq := make([]string, r.Intn(7))
			for k := range seq {
				seq[k] = alphabet[r.Intn(len(alphabet))]
			}
			if got, want := dfa.Matches(seq), nfa.Matches(seq); got != want {
				t.Fatalf("%q on %v: dfa=%v nfa=%v", src, seq, got, want)
			}
		}
	}
}

// FuzzDFAMatchesNFA asserts the lazy DFA is observationally equivalent
// to the raw NFA: same Matches verdict, and same Accepting/Alive at
// every prefix. Descends must hold exactly when some label of the
// expression's alphabet, or a label outside it, steps to an alive state.
// The first input byte string selects/derives a path expression; the
// second drives the label sequence.
func FuzzDFAMatchesNFA(f *testing.F) {
	f.Add("a*.x", "aax")
	f.Add("(a|b).c", "bc")
	f.Add("home.zip._", "hzq")
	f.Add("(a.b)*", "abab")
	f.Add("a.(b|c)+.d?", "abcd")
	f.Fuzz(func(t *testing.T, exprSrc, seqBytes string) {
		if len(exprSrc) > 64 || len(seqBytes) > 32 {
			return
		}
		e, err := Parse(exprSrc)
		if err != nil {
			return // invalid expression: nothing to compare
		}
		nfa := Compile(e)
		dfa := NewDFA(nfa, nil)
		// Every label outside the expression's alphabet steps alike, so
		// the alphabet plus one fresh label covers every step.
		sigma := map[string]bool{}
		atomLabels(e.root, sigma)
		steps := []string{"\x00fresh"}
		for l := range sigma {
			steps = append(steps, l)
		}
		descends := func(ns StateSet) bool {
			for _, l := range steps {
				if nfa.Alive(nfa.Step(ns, l)) {
					return true
				}
			}
			return false
		}
		// Map each input byte to a small label alphabet plus the
		// occasional multi-byte label so interned keys get exercised.
		labels := []string{"a", "b", "c", "x", "home", "zip", "_lit"}
		ns, ds := nfa.Start(), dfa.Start()
		var prefix []string
		for i := 0; ; i++ {
			if want := descends(ns); ds.Descends != want {
				t.Fatalf("expr %q prefix %v: descends = %v, want %v",
					exprSrc, prefix, ds.Descends, want)
			}
			if i == len(seqBytes) {
				break
			}
			l := labels[int(seqBytes[i])%len(labels)]
			prefix = append(prefix, l)
			ns, ds = nfa.Step(ns, l), dfa.Step(ds.ID, l)
			if nfa.Accepting(ns) != ds.Accepting {
				t.Fatalf("expr %q prefix %v: accepting disagrees (nfa=%v)",
					exprSrc, prefix, nfa.Accepting(ns))
			}
			if nfa.Alive(ns) != ds.Alive {
				t.Fatalf("expr %q prefix %v: alive disagrees (nfa=%v)",
					exprSrc, prefix, nfa.Alive(ns))
			}
		}
		seq := strings.Split(strings.Join(prefix, "\x00"), "\x00")
		if len(prefix) == 0 {
			seq = nil
		}
		if got, want := dfa.Matches(seq), nfa.Matches(seq); got != want {
			t.Fatalf("expr %q seq %v: dfa=%v nfa=%v", exprSrc, seq, got, want)
		}
	})
}

func BenchmarkStepNFA(b *testing.B) {
	nfa := Compile(MustParse("(a|b)*.zip._"))
	start := nfa.Start()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := nfa.Step(start, "a")
		s = nfa.Step(s, "zip")
		nfa.Step(s, "92093")
	}
}

func BenchmarkStepDFA(b *testing.B) {
	dfa := NewDFA(Compile(MustParse("(a|b)*.zip._")), nil)
	start := dfa.Start()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := dfa.Step(start.ID, "a")
		s = dfa.Step(s.ID, "zip")
		dfa.Step(s.ID, "92093")
	}
}
