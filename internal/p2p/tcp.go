package p2p

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/wire"
)

// TCPTransport implements Transport over TCP with length-delimited
// binary frames. cmd/medshared uses it to run real multi-process
// deployments; the interface is identical to the in-memory simulator,
// so the node and peer layers do not know which one they run on.
//
// One-way sends share one ordered connection per peer, redialing with a
// capped backoff when the link drops; a send that hits a stale
// connection reconnects and retries once. Requests check out an idle
// connection to the peer from a small pool, or dial one on a miss, and
// hand it back after a response, so a data frame never queues behind
// gossip and a round trip pays no dial. A pooled connection found stale
// (peer restarted, idle cut) is redialed once inside Request: the one
// request handler, core's data.sync server, only reads, so one resend
// is safe. Every
// connection runs under deadlines: writes must finish within
// tcpWriteTimeout, requests end with their context, and inbound
// connections are dropped after idleTimeout without a frame. Peers are
// registered statically with AddPeer (discovery is out of scope, as in
// the paper).
type TCPTransport struct {
	name string
	ln   net.Listener

	idleTimeout time.Duration // per-frame read deadline on inbound conns

	mu     sync.RWMutex
	peers  map[string]string // endpoint name -> host:port
	sends  map[string]*sendConn
	idle   map[string][]*reqConn // idle request connections per peer
	conns  map[net.Conn]struct{} // open inbound connections
	h      Handler
	rh     RequestHandler
	closed bool

	accepted atomic.Int64 // inbound connections accepted (observability/tests)

	wg sync.WaitGroup
}

// sendConn is the one-way connection to a single peer. Its mutex
// serializes writers and guards reconnects.
type sendConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// reqConn is a request connection with the reader its responses are
// read through; it is used by one request at a time.
type reqConn struct {
	conn net.Conn
	br   *bufio.Reader
}

const (
	// tcpWriteTimeout bounds any single frame write.
	tcpWriteTimeout = 10 * time.Second
	// tcpDialTimeout bounds one dial attempt.
	tcpDialTimeout = 3 * time.Second
	// tcpIdleTimeout is the default per-frame read deadline on inbound
	// connections: a peer that goes quiet longer than this is cut loose
	// (it will transparently reconnect on its next send).
	tcpIdleTimeout = 2 * time.Minute
	// Dial retry schedule: dialAttempts tries with delays growing from
	// tcpDialBackoff, capped at tcpDialBackoffMax.
	dialAttempts      = 3
	tcpDialBackoff    = 25 * time.Millisecond
	tcpDialBackoffMax = 200 * time.Millisecond
	// maxIdleRequestConns caps the idle request connections kept per
	// peer: core's fan-out width, so a round of parallel fetches to one
	// peer finds a connection each.
	maxIdleRequestConns = 8
)

// NewTCPTransport binds a listener on addr (e.g. "127.0.0.1:0") and
// starts serving incoming frames.
func NewTCPTransport(name, addr string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("p2p: listening on %s: %w", addr, err)
	}
	t := &TCPTransport{
		name: name, ln: ln,
		idleTimeout: tcpIdleTimeout,
		peers:       make(map[string]string),
		sends:       make(map[string]*sendConn),
		idle:        make(map[string][]*reqConn),
		conns:       make(map[net.Conn]struct{}),
	}
	t.wg.Add(1)
	go t.serve()
	return t, nil
}

// Name implements Transport.
func (t *TCPTransport) Name() string { return t.name }

// Addr returns the bound listen address.
func (t *TCPTransport) Addr() string { return t.ln.Addr().String() }

// AddPeer registers a remote endpoint's address.
func (t *TCPTransport) AddPeer(name, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[name] = addr
}

// Handle implements Transport.
func (t *TCPTransport) Handle(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.h = h
}

// HandleRequest implements Transport.
func (t *TCPTransport) HandleRequest(h RequestHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rh = h
}

// Peers implements Transport.
func (t *TCPTransport) Peers() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.peers))
	for name := range t.peers {
		out = append(out, name)
	}
	return out
}

// Close implements Transport.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pooled := make([]*sendConn, 0, len(t.sends))
	for _, sc := range t.sends {
		pooled = append(pooled, sc)
	}
	var idle []*reqConn
	for _, pcs := range t.idle {
		idle = append(idle, pcs...)
	}
	t.idle = nil
	inbound := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	for _, c := range inbound {
		c.Close()
	}
	for _, pc := range idle {
		pc.conn.Close()
	}
	for _, sc := range pooled {
		sc.mu.Lock()
		if sc.conn != nil {
			sc.conn.Close()
			sc.conn = nil
		}
		sc.mu.Unlock()
	}
	err := t.ln.Close()
	t.wg.Wait()
	return err
}

func (t *TCPTransport) lookup(name string) (string, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return "", ErrClosed
	}
	addr, ok := t.peers[name]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownEndpoint, name)
	}
	return addr, nil
}

// sendSlot returns the one-way connection slot for a peer.
func (t *TCPTransport) sendSlot(to string) *sendConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	sc, ok := t.sends[to]
	if !ok {
		sc = &sendConn{}
		t.sends[to] = sc
	}
	return sc
}

// dialBackoff dials addr, retrying with a capped backoff — a peer that
// is restarting gets a short grace window before the send fails.
func (t *TCPTransport) dialBackoff(addr string) (net.Conn, error) {
	var lastErr error
	delay := tcpDialBackoff
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
			if delay > tcpDialBackoffMax {
				delay = tcpDialBackoffMax
			}
			t.mu.RLock()
			closed := t.closed
			t.mu.RUnlock()
			if closed {
				return nil, ErrClosed
			}
		}
		conn, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// Send implements Transport. It writes on the peer's one-way
// connection, reconnecting (with backoff) when the link is down or has
// gone stale. Like the in-memory transport's lossy mode, a one-way
// message can be lost without error if the remote dies between the
// write and delivery — one-way sends are best-effort by contract.
func (t *TCPTransport) Send(to string, msg Message) error {
	addr, err := t.lookup(to)
	if err != nil {
		return err
	}
	msg.From = t.name
	f := frame{typ: frameMsg, msg: msg}
	sc := t.sendSlot(to)
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if sc.conn == nil {
			conn, err := t.dialBackoff(addr)
			if err != nil {
				return fmt.Errorf("p2p: dialing %s: %w", to, err)
			}
			sc.conn = conn
		}
		_ = sc.conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
		if err := writeFrame(sc.conn, f); err == nil {
			return nil
		} else if attempt > 0 {
			sc.conn.Close()
			sc.conn = nil
			return fmt.Errorf("p2p: sending to %s: %w", to, err)
		}
		// The connection went stale (peer restarted, idle cut): drop it
		// and retry once on a fresh dial.
		sc.conn.Close()
		sc.conn = nil
	}
}

// Broadcast implements Transport.
func (t *TCPTransport) Broadcast(msg Message) error {
	var firstErr error
	for _, name := range t.Peers() {
		if err := t.Send(name, msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Request implements Transport. It runs the round trip on an idle
// pooled connection to the peer, or on a new one; a pooled connection
// that fails for any reason but the context or its deadline is
// redialed once.
func (t *TCPTransport) Request(ctx context.Context, to string, msg Message) (Message, error) {
	addr, err := t.lookup(to)
	if err != nil {
		return Message{}, err
	}
	msg.From = t.name
	req := frame{typ: frameReq, msg: msg}
	pc := t.takeIdle(to)
	for {
		reused := pc != nil
		if !reused {
			d := net.Dialer{Timeout: tcpDialTimeout}
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return Message{}, fmt.Errorf("p2p: dialing %s: %w", to, err)
			}
			pc = &reqConn{conn: conn, br: bufio.NewReader(conn)}
		}
		f, err := roundTrip(ctx, pc, req)
		if err != nil {
			pc.conn.Close()
			if ctx.Err() != nil {
				return Message{}, fmt.Errorf("p2p: request to %s: %w", to, ctx.Err())
			}
			if reused && !errors.Is(err, os.ErrDeadlineExceeded) {
				pc = nil // stale: redial once
				continue
			}
			return Message{}, fmt.Errorf("p2p: request to %s: %w", to, err)
		}
		t.putIdle(to, pc)
		switch f.typ {
		case frameNoHandler:
			return Message{}, fmt.Errorf("p2p: request to %s: %w", to, ErrNoHandler)
		case frameErr:
			return Message{}, fmt.Errorf("p2p: remote error: %s", f.err)
		}
		return f.msg, nil
	}
}

// roundTrip writes one request frame and reads its answer: a response,
// error or no-handler frame. The connection's deadline is the context's,
// and cancelling the context moves it into the past, so blocked I/O
// returns at once; a connection that failed is not reusable.
func roundTrip(ctx context.Context, pc *reqConn, req frame) (frame, error) {
	deadline, _ := ctx.Deadline()
	_ = pc.conn.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { _ = pc.conn.SetDeadline(time.Unix(1, 0)) })
	var f frame
	err := writeFrame(pc.conn, req)
	if err == nil {
		f, err = readFrame(pc.br)
	}
	if !stop() {
		return frame{}, ctx.Err()
	}
	if err == nil && f.typ != frameResp && f.typ != frameErr && f.typ != frameNoHandler {
		err = fmt.Errorf("%w: frame type %d answers a request", errBadFrame, f.typ)
	}
	return f, err
}

// takeIdle returns the most recently used idle request connection to a
// peer, or nil when there is none.
func (t *TCPTransport) takeIdle(to string) *reqConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	pcs := t.idle[to]
	if len(pcs) == 0 {
		return nil
	}
	pc := pcs[len(pcs)-1]
	t.idle[to] = pcs[:len(pcs)-1]
	return pc
}

// putIdle returns a request connection to its peer's pool, or closes it
// when the pool is full or the transport closed.
func (t *TCPTransport) putIdle(to string, pc *reqConn) {
	t.mu.Lock()
	if !t.closed && len(t.idle[to]) < maxIdleRequestConns {
		t.idle[to] = append(t.idle[to], pc)
		pc = nil
	}
	t.mu.Unlock()
	if pc != nil {
		pc.conn.Close()
	}
}

// serve accepts connections until the listener closes.
func (t *TCPTransport) serve() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.accepted.Add(1)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.handleConn(conn)
		}()
	}
}

// handleConn serves frames off one inbound connection until it closes
// or goes idle past the deadline. One-way messages are dispatched inline
// so per-connection ordering is preserved, and requests on one
// connection are answered one after another.
func (t *TCPTransport) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(t.idleTimeout))
		f, err := readFrame(br)
		if err != nil {
			return
		}
		switch f.typ {
		case frameMsg:
			t.mu.RLock()
			h := t.h
			t.mu.RUnlock()
			if h != nil {
				h(f.msg)
			}
		case frameReq:
			t.mu.RLock()
			rh := t.rh
			t.mu.RUnlock()
			out := frame{typ: frameNoHandler}
			if rh != nil {
				resp, err := rh(f.msg)
				out = frame{typ: frameResp, msg: resp}
				if err != nil {
					out = frame{typ: frameErr, err: err.Error()}
				}
			}
			_ = conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
			if err := writeFrame(conn, out); err != nil {
				return
			}
		default:
			// A peer may not send answers: protocol violation, cut the
			// connection.
			return
		}
	}
}

// Frame types: the byte after a frame's length.
const (
	frameMsg       byte = 1 // one-way message
	frameReq       byte = 2 // request
	frameResp      byte = 3 // response
	frameErr       byte = 4 // the request handler's error, as text
	frameNoHandler byte = 5 // the endpoint has no request handler
)

// frame is one wire message. On the wire it is an 8-byte big-endian
// body length, then the body: the type byte; the message's kind, its
// sender and the error text, each behind a varint length; and the
// payload as the rest. Error and no-handler frames carry no payload.
type frame struct {
	typ byte
	msg Message
	err string
}

// errBadFrame marks a frame body that does not decode.
var errBadFrame = errors.New("p2p: bad frame")

// maxFrameSize bounds a frame to 64 MiB, far above any share payload this
// system ships.
const maxFrameSize = 64 << 20

// frameChunk is the most readFrame allocates ahead of the bytes that
// arrived: a frame's declared length is unauthenticated, so its buffer
// grows as the body does.
const frameChunk = 256 << 10

// writeFrame writes f with one Write, so prefix and body leave in one
// syscall (and, on loopback, one segment).
func writeFrame(w io.Writer, f frame) error {
	fields := len(f.msg.Kind) + len(f.msg.From) + len(f.err) + len(f.msg.Payload)
	buf := make([]byte, 8, 8+1+3*binary.MaxVarintLen64+fields)
	buf = append(buf, f.typ)
	buf = wire.AppendBytes(buf, f.msg.Kind)
	buf = wire.AppendBytes(buf, f.msg.From)
	buf = wire.AppendBytes(buf, f.err)
	buf = append(buf, f.msg.Payload...)
	binary.BigEndian.PutUint64(buf, uint64(len(buf)-8))
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame. A stream that ends inside a frame fails
// with io.ErrUnexpectedEOF, and one that ends between frames with
// io.EOF.
func readFrame(r io.Reader) (frame, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint64(hdr[:])
	if n > maxFrameSize {
		return frame{}, fmt.Errorf("%w: %d bytes exceeds limit", errBadFrame, n)
	}
	size := int(n)
	body := make([]byte, 0, min(size, frameChunk))
	for len(body) < size {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(size-len(body), len(body)))
		}
		m, err := io.ReadFull(r, body[len(body):min(cap(body), size)])
		body = body[:len(body)+m]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return frame{}, err
		}
	}
	return decodeFrame(body)
}

// decodeFrame decodes a frame body. It refuses an unknown type and any
// byte after an error or no-handler frame's error text, so an accepted
// body re-encodes to exactly its bytes.
func decodeFrame(body []byte) (frame, error) {
	rd := wire.NewReader(body, errBadFrame)
	f := frame{typ: rd.Byte()}
	if f.typ < frameMsg || f.typ > frameNoHandler {
		rd.Fail(fmt.Sprintf("unknown frame type %d", f.typ))
	}
	f.msg.Kind = string(rd.Bytes())
	f.msg.From = string(rd.Bytes())
	f.err = string(rd.Bytes())
	if f.typ <= frameResp {
		f.msg.Payload = rd.Rest()
	}
	if err := rd.Done(); err != nil {
		return frame{}, err
	}
	return f, nil
}
