package buffer

import (
	"net"
	"testing"

	"mix/internal/lxp"
	"mix/internal/nav"
	"mix/internal/workload"
)

// BenchmarkColdDrain drains a cold 150-book chunked catalog over real
// TCP: LXP codec, fills and splices. A full drain enters every child
// list, so the buffer still grafts every node; of the lazy graft it
// gains only the smaller node (BenchmarkGlanceOverLXP measures a read
// that leaves most lists unentered).
func BenchmarkColdDrain(b *testing.B) {
	catalog := workload.Books("az", 150, 7)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := lxp.NewTCPServer(&lxp.TreeServer{Tree: catalog, Chunk: 10, InlineLimit: 1})
	go srv.Serve(l) //nolint:errcheck // exits with the listener
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client, err := lxp.Dial(l.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		buf, err := New(client, "u")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nav.Materialize(buf); err != nil {
			b.Fatal(err)
		}
		client.Close()
	}
}
