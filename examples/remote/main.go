// Command remote demonstrates the networked mediator: a mixd server
// (internal/server) started in-process on a loopback listener, and a
// VXDP client navigating the homes⋈schools view across the wire.
//
// It runs the same exploration — reading the labels of the first k
// answer children — twice:
//
//   - on a cold view, one DOM-VXD command per message: every d/r/f costs
//     a round trip, exactly the naive remote-DOM cost model of Section 2,
//     while the mediator evaluates lazily;
//   - on the same view after an earlier session explored all of it: the
//     server ships read-ahead windows with its answers, and the client
//     answers most commands from them, so the scan takes a few round
//     trips.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"mix/internal/mediator"
	"mix/internal/nav"
	"mix/internal/regioncache"
	"mix/internal/server"
	"mix/internal/vxdp"
	"mix/internal/workload"
)

const query = `
CONSTRUCT <answer>
  <med_home> $H $S {$S} </med_home> {$H}
</answer> {}
WHERE homesSrc homes.home $H AND $H zip._ $V1
AND schoolsSrc schools.school $S AND $S zip._ $V2
AND $V1 = $V2
`

func main() {
	n := flag.Int("n", 100, "homes and schools per source")
	k := flag.Int("k", 8, "answer children the client looks at")
	zips := flag.Int("zips", 50, "distinct zip codes (join selectivity)")
	flag.Parse()

	homes, schools := workload.HomesSchools(*n, *n, *zips, 42)
	srv, err := server.New(func(rc *regioncache.Cache) (*mediator.Mediator, error) {
		m := mediator.New(mediator.DefaultOptions())
		m.SetRegionCache(rc)
		m.RegisterTree("homesSrc", homes)
		m.RegisterTree("schoolsSrc", schools)
		return m, nil
	}, server.WithRegionCache(regioncache.New(0)))
	if err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	fmt.Printf("mixd serving on %s\n\n", l.Addr())

	addr := l.Addr().String()
	scan := func(what string) *vxdp.Client {
		c, err := vxdp.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Open(query); err != nil {
			log.Fatal(err)
		}
		before := c.RoundTrips()
		labels, err := nav.Labels(c, *k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %d labels in %d round trips\n", what, len(labels), c.RoundTrips()-before)
		return c
	}

	// A cold view: one command per message.
	c1 := scan("cold view, one command per message:")
	// The same session explores the rest of the view, completing its
	// region in the shared cache.
	before := c1.RoundTrips()
	if _, err := nav.Materialize(c1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explored the whole view in %d round trips\n", c1.RoundTrips()-before)
	c1.Close()

	// A fresh session on the explored view: windows answer the scan.
	c2 := scan("explored view, windows:           ")
	defer c2.Close()

	st, err := c2.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver stats: %s\n", st)
}
