package wirejson

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// A frame on either protocol is a 4-byte big-endian payload length
// followed by the payload. Writers assemble the whole frame — four
// placeholder bytes, then the payload — and hand it over in one Write,
// so senders sharing a connection keep frames whole; readers check the
// length against the protocol's limit before they read or allocate.

var (
	bufGets atomic.Int64 // total pool fetches
	bufNews atomic.Int64 // fetches that had to allocate
)

// BufferPoolStats reports total pooled-buffer fetches and how many of
// them had to allocate, for /metrics; gets-news fetches were served by
// reuse.
func BufferPoolStats() (gets, news int64) {
	return bufGets.Load(), bufNews.Load()
}

// keepCap bounds what the pool retains: the occasional catalog-sized
// frame goes back to the collector instead of staying pinned.
const keepCap = 1 << 20

// Frame is a pooled frame buffer. Its encoder writes into the buffer
// and is recycled with it.
type Frame struct {
	bytes.Buffer
	enc *json.Encoder
}

var framePool = sync.Pool{New: func() any {
	bufNews.Add(1)
	return new(Frame)
}}

// GetFrame returns a pooled frame holding only the four placeholder
// bytes of the length prefix; the caller appends the payload, sends it
// with Send and hands it back with Release.
func GetFrame() *Frame {
	bufGets.Add(1)
	f := framePool.Get().(*Frame)
	f.Reset()
	f.Write([]byte{0, 0, 0, 0})
	return f
}

// Release returns f to the pool.
func (f *Frame) Release() {
	if f.Cap() <= keepCap {
		framePool.Put(f)
	}
}

// EncodeJSON appends json.Marshal's rendering of v.
func (f *Frame) EncodeJSON(v any) error {
	if f.enc == nil {
		f.enc = json.NewEncoder(&f.Buffer)
	}
	if err := f.enc.Encode(v); err != nil {
		return err
	}
	f.Truncate(f.Len() - 1) // the newline Encode adds and json.Marshal does not
	return nil
}

// Send writes the frame assembled in f to w; see the package-level Send.
func (f *Frame) Send(w io.Writer, limit int) error {
	return Send(w, f.Bytes(), limit)
}

// Send fills in the length prefix of frame — four placeholder bytes,
// then the payload — and writes it to w in one Write. A payload over
// limit bytes is refused and nothing is written.
func Send(w io.Writer, frame []byte, limit int) error {
	n := len(frame) - 4
	if n > limit {
		return errTooBig(n, limit)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

func errTooBig(n, limit int) error {
	return fmt.Errorf("wirejson: frame of %d bytes exceeds limit %d", n, limit)
}

// length decodes a length prefix and checks it against limit.
func length(hdr []byte, limit int) (int, error) {
	n := int(binary.BigEndian.Uint32(hdr))
	if n > limit {
		return 0, errTooBig(n, limit)
	}
	return n, nil
}

// ReadFrame reads one frame from r and hands its payload to decode,
// which must not keep it. From a *bufio.Reader, a frame that fits the
// reader's buffer is decoded where it lies; any other payload is read
// into a pooled buffer. A length over limit is refused before the
// payload is read or allocated; a truncated frame is an error.
func ReadFrame(r io.Reader, limit int, decode func(payload []byte) error) error {
	if br, ok := r.(*bufio.Reader); ok {
		hdr, err := br.Peek(4)
		if err != nil {
			if err == io.EOF && len(hdr) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		n, err := length(hdr, limit)
		if err != nil {
			return err
		}
		if 4+n <= br.Size() {
			frame, err := br.Peek(4 + n)
			if err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return err
			}
			err = decode(frame[4:])
			_, _ = br.Discard(4 + n) // cannot fail: Peek just buffered these bytes
			return err
		}
		// Too big to peek: the header is read again below.
	}
	f := GetFrame()
	defer f.Release()
	hdr := f.Bytes()
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	n, err := length(hdr, limit)
	if err != nil {
		return err
	}
	f.Grow(n)
	p := f.AvailableBuffer()[:n]
	if _, err := io.ReadFull(r, p); err != nil {
		return err
	}
	return decode(p)
}
