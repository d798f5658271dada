package server_test

import (
	"testing"

	"mix/internal/vxdp"
)

// BenchmarkSessionDialOpenClose runs the shortest useful session over
// a warm view: dial, open, root, one down, close. The frame buffers at
// both ends come from the pool, so a session's allocations are its
// connection, its open and its handles.
func BenchmarkSessionDialOpenClose(b *testing.B) {
	_, addr := start(b)
	session := func() {
		c, err := vxdp.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if err := c.Open(joinQuery); err != nil {
			b.Fatal(err)
		}
		root, err := c.Root()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Down(root); err != nil {
			b.Fatal(err)
		}
	}
	session() // warms the view
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session()
	}
}
