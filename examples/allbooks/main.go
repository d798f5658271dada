// Command allbooks reproduces the introduction's motivating scenario:
// an integrated view over two bookseller catalogs that cannot be
// warehoused. The catalogs sit behind paged web wrappers speaking LXP
// through the generic buffer component, and the user browses only the
// first few hits of a broad subject query — so only a few pages are
// ever fetched from either seller.
package main

import (
	"flag"
	"fmt"
	"log"

	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/workload"
	"mix/internal/wrapper"
	"mix/internal/xmltree"
)

func main() {
	n := flag.Int("n", 5000, "books per catalog")
	page := flag.Int("page", 25, "items per web page")
	k := flag.Int("k", 5, "results the user looks at")
	subject := flag.String("subject", "databases", "subject to search")
	flag.Parse()

	amazon := &wrapper.Web{Name: "amazon", Catalog: workload.Books("az", *n, 1), PageSize: *page}
	bn := &wrapper.Web{Name: "bn", Catalog: workload.Books("bn", *n, 2), PageSize: *page}

	m := mediator.New(mediator.DefaultOptions())
	if _, err := m.RegisterLXP("amazon", amazon, "amazon"); err != nil {
		log.Fatal(err)
	}
	if _, err := m.RegisterLXP("bn", bn, "bn"); err != nil {
		log.Fatal(err)
	}

	// The integrated view of Section 1, as a XMAS view definition.
	if err := m.DefineView("allbooks", fmt.Sprintf(`
CONSTRUCT <allbooks> $B {$B} </allbooks> {}
WHERE amazon catalog.book $B AND $B subject._ $S AND $S = "%s"
`, *subject)); err != nil {
		log.Fatal(err)
	}

	// Note: one source per component — integrate both sellers by union
	// at the query level via two views.
	if err := m.DefineView("allbooks2", fmt.Sprintf(`
CONSTRUCT <allbooks2> $B {$B} </allbooks2> {}
WHERE bn catalog.book $B AND $B subject._ $S AND $S = "%s"
`, *subject)); err != nil {
		log.Fatal(err)
	}

	res, err := m.Query(`
CONSTRUCT <hits>
  <amazon_hits> $A {$A} </amazon_hits>
</hits> {}
WHERE allbooks allbooks.book $A
`)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("catalogs: %d books each, %d per page; subject=%q; user reads %d hits\n\n",
		*n, *page, *subject, *k)

	// Browse the first k hits.
	root, err := res.Root()
	if err != nil {
		log.Fatal(err)
	}
	hits, err := root.FirstChild() // amazon_hits
	if err != nil || hits == nil {
		log.Fatalf("no hits container: %v", err)
	}
	book, err := hits.FirstChild()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; book != nil && i < *k; i++ {
		t, err := book.Materialize()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hit %d: %s — $%s\n", i+1,
			t.Find("title").TextContent(), t.Find("price").TextContent())
		book, err = book.NextSibling()
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\npages fetched from amazon: %d of %d\n", amazon.Pages.Load(), (*n+*page-1)/(*page))
	fmt.Printf("pages fetched from bn:     %d of %d (never touched by this query)\n",
		bn.Pages.Load(), (*n+*page-1)/(*page))

	// Now the same through the second seller's view, to show both are live.
	res2, err := m.Query(`
CONSTRUCT <hits2> $B {$B} </hits2> {}
WHERE allbooks2 allbooks2.book $B
`)
	if err != nil {
		log.Fatal(err)
	}
	first, err := nav.ExploreFirst(res2.Document(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfirst bn hit:\n%s", xmltree.MarshalIndent(first.FirstChild()))
	fmt.Printf("pages fetched from bn after browsing its view: %d\n", bn.Pages.Load())
}
