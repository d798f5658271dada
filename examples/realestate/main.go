// Command realestate demonstrates the heterogeneous integration of
// Fig. 1: homes live in a *relational database* behind the Section 4
// relational wrapper (tuple-at-a-time cursor, n tuples in a table's
// first LXP fill and up to 4n in each later one),
// schools in an XML document — and one XMAS query joins them through
// the mediator, with per-layer cost accounting (relational tuple
// fetches, LXP fills, DOM-VXD navigations).
package main

import (
	"flag"
	"fmt"
	"log"

	"mix/internal/lxp"
	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/relational"
	"mix/internal/workload"
	"mix/internal/wrapper"
)

func main() {
	n := flag.Int("n", 500, "homes in the relational source")
	chunk := flag.Int("chunk", 25, "tuples in the first LXP fill of the homes table (later fills grow to 4x)")
	flag.Parse()

	// The relational source: a homes table.
	db := relational.NewDB("realestate")
	homes := db.Create("homes", "addr", "zip", "price")
	homesXML, schoolsXML := workload.HomesSchools(*n, *n/2, *n/20+1, 7)
	for _, h := range homesXML.Children {
		homes.MustInsert(
			h.Find("addr").TextContent(),
			h.Find("zip").TextContent(),
			h.Find("price").TextContent(),
		)
	}

	m := mediator.New(mediator.DefaultOptions())
	rw := lxp.NewCounting(&wrapper.Relational{DB: db, ChunkRows: *chunk})
	buf, err := m.RegisterLXP("realestate", rw, "realestate")
	if err != nil {
		log.Fatal(err)
	}
	schoolsDoc := nav.NewCountingDoc(nav.NewTreeDoc(schoolsXML))
	m.RegisterSource("schoolsSrc", schoolsDoc)

	// The integrated view: relational rows joined with XML elements.
	// The relational wrapper exposes realestate[homes[rowN[addr,zip,price]…]].
	res, err := m.Query(`
CONSTRUCT <listings>
  <listing> $R $S {$S} </listing> {$R}
</listings> {}
WHERE realestate realestate.homes._ $R AND $R zip._ $Z1
AND schoolsSrc schools.school $S AND $S zip._ $Z2
AND $Z1 = $Z2
`)
	if err != nil {
		log.Fatal(err)
	}

	// Browse the first three listings.
	root, err := res.Root()
	if err != nil {
		log.Fatal(err)
	}
	l, err := root.FirstChild()
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; l != nil && i < 3; i++ {
		// Glance: the row and the first school only. (Exhausting a
		// listing's complete school list would force the groupBy to
		// scan the whole join output — the unbounded tail of the
		// paper's next(pb,pg); a glancing user never pays it.)
		rowEl, err := l.FirstChild()
		if err != nil {
			log.Fatal(err)
		}
		row, err := rowEl.Materialize()
		if err != nil {
			log.Fatal(err)
		}
		firstSchool := "none"
		if s, err := rowEl.NextSibling(); err == nil && s != nil {
			st, err := s.Materialize()
			if err != nil {
				log.Fatal(err)
			}
			firstSchool = st.Find("dir").TextContent()
		}
		fmt.Printf("listing %d: %s (zip %s, $%s) — nearest school: %s\n",
			i+1,
			row.Find("addr").TextContent(),
			row.Find("zip").TextContent(),
			row.Find("price").TextContent(),
			firstSchool)
		l, err = l.NextSibling()
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("\ncosts after browsing 3 of ~%d listings:\n", *n)
	fmt.Printf("  relational tuples fetched: %5d of %d\n", db.Counters.Tuples.Load(), homes.NumRows())
	fmt.Printf("  LXP fills (chunk=%d):      %5d\n", *chunk, rw.Counters.Fills.Load())
	fmt.Printf("  LXP bytes:                 %5d\n", rw.Counters.Bytes.Load())
	fmt.Printf("  school navigations:        %5d\n", schoolsDoc.Counters.Navigations())
	fmt.Printf("  buffered open tree still has %d unexplored hole(s)\n", buf.Stats().PendingHoles)

	// Peek at the open tree: the explored part of the source view,
	// with holes for the unexplored remainder (Definition 3/4).
	snap := buf.Snapshot()
	fmt.Printf("\nexplored part of the source view: %d of %d nodes; holes: %v\n",
		snap.Size(), fullSize(db), snap.Holes())
}

func fullSize(db *relational.DB) int {
	n := 1
	for _, t := range db.TableNames() {
		tb := db.Table(t)
		n += 1 + tb.NumRows()*(1+2*len(tb.Cols))
	}
	return n
}
