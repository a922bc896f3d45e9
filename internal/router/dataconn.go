package router

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/shard"
)

// rpcResult is one call's outcome, delivered on the channel the caller
// registered; call is the caller's own tag for telling its calls apart.
type rpcResult struct {
	call int
	ans  *shard.Answer
	err  error
}

// pendingCall is a written request awaiting its reply; want is the status
// an answer to its op carries.
type pendingCall struct {
	ch    chan<- rpcResult
	call  int
	want  byte
	start time.Time
}

// errConnClosed fails calls made after the fleet closed.
var errConnClosed = errors.New("router: data connection closed")

// dataConn is the parent's end of one replica's data plane: a single
// persistent connection carrying every concurrent call to that replica,
// multiplexed by call id. Writers serialise on mu and share one frame
// buffer; one reader goroutine per live connection dispatches replies to
// the pending calls by id. A caller that gives up (deadline, hedge lost)
// drops its id and the late reply is discarded. Any read or write error
// fails every pending call at once and closes the connection; the next
// call dials a fresh one — to the same address, which the parent-held
// listener keeps open across child restarts.
type dataConn struct {
	rep *replica

	mu      sync.Mutex
	conn    net.Conn // nil between a failure and the next call
	closed  bool
	dialed  bool // a connection was established before: the next dial is a redial
	nextID  uint64
	wbuf    []byte
	pending map[uint64]pendingCall

	readers sync.WaitGroup
}

func newDataConn(rep *replica) *dataConn {
	return &dataConn{rep: rep, pending: make(map[uint64]pendingCall)}
}

// send writes one request (req is its op byte and body) and registers
// the call; exactly one rpcResult tagged call arrives on ch unless the
// caller drops the returned id first. ch must have room for it: the reader
// never blocks on a caller. A non-nil error means nothing was registered.
func (c *dataConn) send(ctx context.Context, req []byte, ch chan<- rpcResult, call int) (uint64, error) {
	c.mu.Lock()
	id, failed, err := c.sendLocked(ctx, req, ch, call)
	c.mu.Unlock()
	failCalls(failed, err)
	return id, err
}

func (c *dataConn) sendLocked(ctx context.Context, req []byte, ch chan<- rpcResult, call int) (uint64, map[uint64]pendingCall, error) {
	if c.closed {
		return 0, nil, errConnClosed
	}
	if c.conn == nil {
		if err := c.dialLocked(ctx); err != nil {
			return 0, nil, err
		}
	}
	c.nextID++
	id := c.nextID
	c.wbuf = appendRequest(c.wbuf[:0], id, req)
	// A peer that stopped reading (frozen, blackholed under heavy traffic)
	// eventually fills the socket buffer; the write must give up rather
	// than wedge every caller behind mu.
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.rep.fleet.cfg.HealthTimeout))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		err = fmt.Errorf("router: shard %d replica %d: write: %w", c.rep.shard, c.rep.idx, err)
		return 0, c.failLocked(), err
	}
	want := byte(statusOK)
	if req[0] == opHistogram {
		want = statusRows
	}
	c.pending[id] = pendingCall{ch: ch, call: call, want: want, start: time.Now()}
	c.rep.fleet.rpcs.Add(1)
	return id, nil, nil
}

// dialLocked connects to the replica's data listener and starts the
// connection's reader.
func (c *dataConn) dialLocked(ctx context.Context) error {
	d := net.Dialer{Timeout: c.rep.fleet.cfg.HealthTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.rep.dataAddr)
	if err != nil {
		return fmt.Errorf("router: shard %d replica %d: %w", c.rep.shard, c.rep.idx, err)
	}
	if c.dialed {
		c.rep.fleet.redials.Add(1)
	}
	c.dialed = true
	c.conn = conn
	c.readers.Add(1)
	go c.readLoop(conn)
	return nil
}

// drop abandons a call: its reply, if one ever comes, is discarded.
func (c *dataConn) drop(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// readLoop dispatches conn's replies until it fails. The payload buffer is
// reused across frames; decoded answers own fresh memory.
func (c *dataConn) readLoop(conn net.Conn) {
	defer c.readers.Done()
	f := c.rep.fleet
	br := bufio.NewReader(conn)
	var buf []byte
	for {
		var err error
		if buf, err = readFrame(br, buf); err != nil {
			c.fail(conn, fmt.Errorf("router: shard %d replica %d: read: %w", c.rep.shard, c.rep.idx, err))
			return
		}
		r, err := decodeReply(buf, f.dims)
		if err != nil {
			c.fail(conn, fmt.Errorf("router: shard %d replica %d: %w", c.rep.shard, c.rep.idx, err))
			return
		}
		c.mu.Lock()
		p, ok := c.pending[r.id]
		delete(c.pending, r.id)
		c.mu.Unlock()
		if !ok {
			continue // dropped by its caller
		}
		f.rpcHist.Observe(time.Since(p.start))
		res := rpcResult{call: p.call, ans: r.ans}
		switch {
		case r.err != nil:
			res.ans, res.err = nil, fmt.Errorf("router: shard %d replica %d: %w", c.rep.shard, c.rep.idx, r.err)
		case r.shard != c.rep.shard:
			res.ans, res.err = nil, fmt.Errorf("router: shard %d replica %d answered as shard %d", c.rep.shard, c.rep.idx, r.shard)
		case r.status != p.want:
			res.ans, res.err = nil, fmt.Errorf("router: shard %d replica %d answered another op (status %d)", c.rep.shard, c.rep.idx, r.status)
		default:
			f.childHist.Observe(time.Duration(r.childNS))
		}
		p.ch <- res
	}
}

// fail condemns conn after a read error, unless a writer already did.
func (c *dataConn) fail(conn net.Conn, err error) {
	c.mu.Lock()
	var failed map[uint64]pendingCall
	if c.conn == conn {
		failed = c.failLocked()
	}
	c.mu.Unlock()
	failCalls(failed, err)
}

// failLocked closes the live connection and hands back every pending call
// for the caller to fail once mu is released. All of them belong to the
// live connection: a new one is only dialed after this emptied the table.
func (c *dataConn) failLocked() map[uint64]pendingCall {
	c.conn.Close()
	c.conn = nil
	failed := c.pending
	c.pending = make(map[uint64]pendingCall)
	return failed
}

func failCalls(failed map[uint64]pendingCall, err error) {
	for _, p := range failed {
		p.ch <- rpcResult{call: p.call, err: err}
	}
}

// close ends the data plane for good: pending calls fail, later sends are
// refused, and the reader has exited by the time it returns.
func (c *dataConn) close() {
	c.mu.Lock()
	c.closed = true
	var failed map[uint64]pendingCall
	if c.conn != nil {
		failed = c.failLocked()
	}
	c.mu.Unlock()
	failCalls(failed, errConnClosed)
	c.readers.Wait()
}
