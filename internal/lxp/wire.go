package lxp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"mix/internal/xmltree"
)

// This file implements the network transport of LXP: length-prefixed
// JSON frames over a net.Conn, so mediator and wrapper can live in
// different address spaces (the deployment Fig. 7 anticipates). One
// request or response per frame. A connection is multiplexed: the
// client tags every request with a request id ("rid"), the server
// answers each request on its own goroutine and echoes the rid, and
// responses travel in completion order — so callers sharing one Client
// overlap their round trips instead of queueing behind each other.
//
// Both frame writers (writeRequest, writeResponse) assemble their
// frame first and hand it over in exactly one Write; frameWriter relies
// on that to keep concurrent senders' frames whole. codec.go encodes
// and decodes the JSON payloads. A decoded response keeps nothing of
// the connection but interned labels: its nodes live in blocks of its
// own, so a connection that outlives many source epochs holds no
// fragment of a retired one.

// maxFrame bounds a single LXP frame; fills larger than this indicate
// a runaway wrapper.
const maxFrame = 64 << 20

// request and response are the LXP messages. Their json.Marshal output
// is, by definition, the LXP payload format: codec.go writes exactly
// those bytes, and decodes any payload not in that canonical shape
// through these structs.
type request struct {
	Rid uint64   `json:"rid,omitempty"` // echoed by the response; clients count from 1
	Op  string   `json:"op"`            // "get_root" | "fill" | "fill_many"
	URI string   `json:"uri,omitempty"`
	ID  string   `json:"id,omitempty"`
	IDs []string `json:"ids,omitempty"` // fill_many only
}

// response is the wire form of a leanResponse.
type response struct {
	Rid   uint64                `json:"rid,omitempty"`
	Hole  string                `json:"hole,omitempty"`
	Trees []wireTree            `json:"trees"`
	Many  map[string][]wireTree `json:"many,omitempty"` // fill_many only
	Err   string                `json:"error,omitempty"`
}

// wireTree is the JSON encoding of an xmltree.Tree.
type wireTree struct {
	L string     `json:"l"`
	C []wireTree `json:"c,omitempty"`
}

// frameWriter lets concurrent senders share one connection: each Write
// is one whole frame (see the file comment) and goes out under the lock.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (fw *frameWriter) Write(frame []byte) (int, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.w.Write(frame)
}

// Client is the buffer-side endpoint of a networked LXP session. It
// implements Server, so a buffer cannot tell a remote wrapper from a
// local one. Safe for concurrent use, and concurrent calls overlap:
// each is written under the write lock, parked in the pending table
// under its rid, and woken by the reader goroutine when the response
// with that rid arrives, in whatever order the server completes them.
type Client struct {
	conn net.Conn
	w    frameWriter

	mu      sync.Mutex
	pending map[uint64]*call // calls awaiting a response, by rid
	lastRid uint64
	err     error // why the connection is unusable; set once, by fail

	readerDone chan struct{} // closed when the reader goroutine has exited

	// Reader goroutine only. Each response is decoded into blocks of its
	// own (see decoder.reserve), so a fragment lives exactly as long as
	// the buffer that keeps it, however long the connection lives. The
	// interner is the one state decoding keeps across frames, and it
	// holds at most xmltree.MaxInterned labels.
	r      *bufio.Reader
	intern *xmltree.Interner
}

// call is one parked round trip. Calls are pooled together with their
// wake-up channel, so a round trip allocates neither.
type call struct {
	lr   leanResponse
	err  error
	done chan struct{} // the reader (or fail) sends once per registered call
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// Dial connects to an LXP server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection and starts its reader
// goroutine, which runs until the connection fails or Close is called.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, w: frameWriter{w: conn}, r: bufio.NewReader(conn),
		pending: map[uint64]*call{}, readerDone: make(chan struct{}),
		intern: xmltree.NewInterner()}
	go c.readLoop()
	return c
}

// Close closes the underlying connection, failing every outstanding
// call, and returns once the reader goroutine has exited.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// fail marks the connection unusable for the first reason given, closes
// it, and wakes every outstanding call with that reason.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	failed := c.pending
	c.pending = map[uint64]*call{}
	c.mu.Unlock()
	_ = c.conn.Close() // a second Close only reports "already closed"
	for _, cl := range failed {
		cl.err = err
		cl.done <- struct{}{}
	}
}

// readLoop is the reader goroutine: it decodes responses as they arrive
// and hands each to the call parked under its rid.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		var lr leanResponse
		if err := readResponse(c.r, c.intern, &lr); err != nil {
			c.fail(fmt.Errorf("lxp: connection lost: %w", err))
			return
		}
		c.mu.Lock()
		cl := c.pending[lr.rid]
		delete(c.pending, lr.rid)
		c.mu.Unlock()
		if cl == nil {
			// Unanswerable: nothing says whose response this was (a peer
			// that does not echo rids, or a corrupted stream).
			c.fail(fmt.Errorf("lxp: response to unknown request id %d", lr.rid))
			return
		}
		cl.lr = lr
		cl.done <- struct{}{}
	}
}

// roundTrip sends req and waits for the response carrying its rid,
// which it copies into lr (short-lived callers keep lr on the stack).
func (c *Client) roundTrip(req request, lr *leanResponse) error {
	cl := callPool.Get().(*call)
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		callPool.Put(cl)
		return err
	}
	c.lastRid++
	req.Rid = c.lastRid
	c.pending[req.Rid] = cl
	c.mu.Unlock()

	if err := writeRequest(&c.w, req); err != nil {
		// Part of a frame may be on the wire, so the stream is lost for
		// everyone; fail wakes this call too.
		c.fail(fmt.Errorf("lxp: connection lost: %w", err))
	}
	<-cl.done
	err := cl.err
	*lr = cl.lr
	*cl = call{done: cl.done}
	callPool.Put(cl)
	if err != nil {
		return err
	}
	if lr.err != "" {
		return errors.New("lxp: remote: " + lr.err)
	}
	return nil
}

// GetRoot implements Server.
func (c *Client) GetRoot(uri string) (string, error) {
	var resp leanResponse
	if err := c.roundTrip(request{Op: "get_root", URI: uri}, &resp); err != nil {
		return "", err
	}
	return resp.hole, nil
}

// Fill implements Server.
func (c *Client) Fill(holeID string) ([]*xmltree.Tree, error) {
	var resp leanResponse
	if err := c.roundTrip(request{Op: "fill", ID: holeID}, &resp); err != nil {
		return nil, err
	}
	if resp.trees == nil {
		return []*xmltree.Tree{}, nil
	}
	return resp.trees, nil
}

// FillMany implements BatchServer: the whole batch crosses the wire in
// one fill_many round trip. The remote end answers per-hole fills for
// any backend, so a batched client never requires a batched wrapper —
// only the framing changes.
func (c *Client) FillMany(holeIDs []string) (map[string][]*xmltree.Tree, error) {
	var resp leanResponse
	if err := c.roundTrip(request{Op: "fill_many", IDs: holeIDs}, &resp); err != nil {
		return nil, err
	}
	if resp.many == nil {
		return map[string][]*xmltree.Tree{}, nil
	}
	return resp.many, nil
}

// answerRequest dispatches one LXP request to srv, at the tree level.
func answerRequest(req request, srv Server) leanResponse {
	var lr leanResponse
	switch req.Op {
	case "get_root":
		id, err := srv.GetRoot(req.URI)
		if err != nil {
			lr.err = err.Error()
		} else {
			lr.hole = id
		}
	case "fill":
		trees, err := srv.Fill(req.ID)
		if err != nil {
			lr.err = err.Error()
		} else {
			lr.trees, lr.hasTrees = trees, true
		}
	case "fill_many":
		// FillMany degrades to per-hole fills for non-batching backends,
		// so the single round trip is guaranteed server-side either way.
		res, err := FillMany(srv, req.IDs)
		if err != nil {
			lr.err = err.Error()
		} else {
			if res == nil {
				res = map[string][]*xmltree.Tree{}
			}
			lr.many = res
		}
	default:
		lr.err = fmt.Sprintf("unknown op %q", req.Op)
	}
	return lr
}
