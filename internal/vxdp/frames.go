package vxdp

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
)

// Frames is the pair of frame buffers one connection reads and writes
// VXDP frames through, FrameBuffer bytes each. Pairs come from a
// process-wide pool (GetFrames) and go back to it when the connection
// is done with them (Release), so a short session — the common case for
// a browsing client — costs no buffer memory of its own at either end.
type Frames struct {
	R *bufio.Reader
	W *bufio.Writer

	live atomic.Bool // handed out and not yet released
}

var framePool = sync.Pool{New: func() any {
	return &Frames{R: bufio.NewReaderSize(nil, FrameBuffer), W: bufio.NewWriterSize(nil, FrameBuffer)}
}}

// GetFrames returns a pooled pair reading from and writing to rw.
func GetFrames(rw io.ReadWriter) *Frames {
	f := framePool.Get().(*Frames)
	f.live.Store(true)
	f.R.Reset(rw)
	f.W.Reset(rw)
	return f
}

// Release returns the pair to the pool, dropping anything buffered and
// the connection it served. The caller must not touch f afterwards; a
// second Release panics, since it would let two connections share one
// pair.
func (f *Frames) Release() {
	if !f.live.CompareAndSwap(true, false) {
		panic("vxdp: frame buffers released twice")
	}
	f.R.Reset(nil)
	f.W.Reset(nil)
	framePool.Put(f)
}
