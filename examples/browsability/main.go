// Command browsability demonstrates Example 1 and Definition 2 of the
// paper: the three browsability classes, both as the static classifier
// sees them and as measured source-navigation costs. It also shows the
// select(σ) upgrade: with the richer navigation command set the
// selection view becomes bounded browsable.
package main

import (
	"fmt"
	"log"

	"mix/internal/algebra"
	"mix/internal/core"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/xmltree"
)

func main() {
	fmt.Println("Browsability of the three views of Example 1")
	fmt.Println("=============================================")

	views := []struct {
		name string
		plan algebra.Op
	}{
		{"q_conc  (concatenate two sources)", workload.ConcPlan("s1", "s2")},
		{"q_sigma (children with label a)", workload.SelectionPlan("s1", "a")},
		{"q_ord   (reorder by age)", workload.ReorderPlan("s3", "age._")},
	}
	for _, v := range views {
		cls, _ := algebra.Classify(v.plan, false)
		clsSel, _ := algebra.Classify(v.plan, true)
		fmt.Printf("%-36s static: %-18s with select(σ): %s\n", v.name, cls, clsSel)
	}

	fmt.Println("\nMeasured: source navigations to fetch the first answer label")
	fmt.Println("-------------------------------------------------------------")
	fmt.Printf("%10s %12s %12s %12s %14s\n", "N", "q_conc", "q_sigma", "q_ord", "q_sigma+sel")

	for _, n := range []int{100, 1_000, 10_000} {
		fmt.Printf("%10d %12d %12d %12d %14d\n", n,
			measure(workload.ConcPlan("s1", "s2"), n, core.DefaultOptions()),
			measure(workload.SelectionPlan("s1", "a"), n, core.DefaultOptions()),
			measure(workload.ReorderPlan("s3", "age._"), n, core.DefaultOptions()),
			measure(workload.SelectionPlan("s1", "a"), n,
				core.Options{JoinCache: true, PathCache: true, GroupCache: true, NativeSelect: true}),
		)
	}
	fmt.Println("\nq_conc is O(1); q_sigma scans until the first match (here the 'a'")
	fmt.Println("children are sparse, 1 in 50); q_ord must read the whole list; with")
	fmt.Println("native select(σ) the selection costs O(1) commands.")
}

// measure returns the total source navigations for d,f on the answer.
func measure(plan algebra.Op, n int, opts core.Options) int64 {
	// s1: sparse 'a' labels (1 in 50); s2: plain list; s3: people with ages.
	s1 := xmltree.Elem("r")
	for i := 0; i < n; i++ {
		label := "x"
		if i%50 == 49 {
			label = "a"
		}
		s1.Children = append(s1.Children, xmltree.Text(label, fmt.Sprintf("%d", i)))
	}
	s2 := workload.FlatList(n, "y")
	s3 := xmltree.Elem("r")
	for i := 0; i < n; i++ {
		s3.Children = append(s3.Children,
			xmltree.Elem("p", xmltree.Text("age", fmt.Sprintf("%d", (i*7919)%n))))
	}

	e := core.New(opts)
	var counters []*nav.CountingDoc
	for name, t := range map[string]*xmltree.Tree{"s1": s1, "s2": s2, "s3": s3} {
		cd := nav.NewCountingDoc(nav.NewTreeDoc(t))
		counters = append(counters, cd)
		e.Register(name, cd)
	}
	v, err := core.Prepare(plan, "")
	if err != nil {
		log.Fatal(err)
	}
	q, err := e.Compile(v)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nav.Labels(q.Document(), 1); err != nil {
		log.Fatal(err)
	}
	var total int64
	for _, c := range counters {
		total += c.Counters.Navigations()
	}
	return total
}
