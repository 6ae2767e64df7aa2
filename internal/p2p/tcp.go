package p2p

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPTransport implements Transport over TCP with length-delimited JSON
// frames. cmd/medshared uses it to run real multi-process deployments;
// the interface is identical to the in-memory simulator, so the node and
// peer layers do not know which one they run on.
//
// One-way sends reuse a pooled connection per peer, redialing with a
// capped backoff when the link drops; a send that hits a stale pooled
// connection reconnects and retries once. Requests still dial per call —
// they carry the caller's context deadline and matching responses over a
// shared connection is not worth the state machine here. Every
// connection runs under deadlines: writes must finish within
// tcpWriteTimeout, and inbound connections are dropped after
// idleTimeout without a frame. Peers are registered statically with
// AddPeer (discovery is out of scope, as in the paper).
type TCPTransport struct {
	name string
	ln   net.Listener

	idleTimeout time.Duration // per-frame read deadline on inbound conns

	mu     sync.RWMutex
	peers  map[string]string // endpoint name -> host:port
	sends  map[string]*sendConn
	conns  map[net.Conn]struct{} // open inbound connections
	h      Handler
	rh     RequestHandler
	closed bool

	accepted atomic.Int64 // inbound connections accepted (observability/tests)

	wg sync.WaitGroup
}

// sendConn is the pooled one-way connection to a single peer. Its mutex
// serializes writers and guards reconnects.
type sendConn struct {
	mu   sync.Mutex
	conn net.Conn
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
)

// frame is one wire message.
type frame struct {
	// Type is "msg" (one-way), "req", "resp", or "err".
	Type string `json:"type"`
	// Msg is the payload for msg/req/resp frames.
	Msg Message `json:"msg"`
	// Error carries the handler error for err frames.
	Error string `json:"error,omitempty"`
}

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
	inbound := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		inbound = append(inbound, c)
	}
	t.mu.Unlock()
	for _, c := range inbound {
		c.Close()
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

// sendSlot returns the pooled send connection slot for a peer.
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

// Send implements Transport. It writes on the pooled connection to the
// peer, reconnecting (with backoff) when the link is down or has gone
// stale. Like the in-memory transport's lossy mode, a one-way message
// can be lost without error if the remote dies between the write and
// delivery — one-way sends are best-effort by contract.
func (t *TCPTransport) Send(to string, msg Message) error {
	addr, err := t.lookup(to)
	if err != nil {
		return err
	}
	msg.From = t.name
	f := frame{Type: "msg", Msg: msg}
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
		// The pooled connection went stale (peer restarted, idle cut):
		// drop it and retry once on a fresh dial.
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

// Request implements Transport.
func (t *TCPTransport) Request(ctx context.Context, to string, msg Message) (Message, error) {
	addr, err := t.lookup(to)
	if err != nil {
		return Message{}, err
	}
	msg.From = t.name
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return Message{}, fmt.Errorf("p2p: dialing %s: %w", to, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(deadline)
	}
	if err := writeFrame(conn, frame{Type: "req", Msg: msg}); err != nil {
		return Message{}, err
	}
	resp, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		return Message{}, err
	}
	if resp.Type == "err" {
		return Message{}, fmt.Errorf("p2p: remote error: %s", resp.Error)
	}
	return resp.Msg, nil
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
// so per-connection ordering is preserved.
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
		switch f.Type {
		case "msg":
			t.mu.RLock()
			h := t.h
			t.mu.RUnlock()
			if h != nil {
				h(f.Msg)
			}
		case "req":
			t.mu.RLock()
			rh := t.rh
			t.mu.RUnlock()
			_ = conn.SetWriteDeadline(time.Now().Add(tcpWriteTimeout))
			if rh == nil {
				_ = writeFrame(conn, frame{Type: "err", Error: ErrNoHandler.Error()})
				continue
			}
			resp, err := rh(f.Msg)
			if err != nil {
				_ = writeFrame(conn, frame{Type: "err", Error: err.Error()})
				continue
			}
			if err := writeFrame(conn, frame{Type: "resp", Msg: resp}); err != nil {
				return
			}
		default:
			// Unknown frame type: protocol violation, cut the connection.
			return
		}
	}
}

// writeFrame encodes a frame as a length-prefixed JSON blob, written
// with one Write so prefix and body leave in one syscall (and, on
// loopback, one segment).
func writeFrame(conn net.Conn, f frame) error {
	raw, err := json.Marshal(f)
	if err != nil {
		return err
	}
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(raw)), uint64(len(raw)))
	_, err = conn.Write(append(buf, raw...))
	return err
}

// maxFrameSize bounds a frame to 64 MiB, far above any share payload this
// system ships, but low enough to stop a hostile peer from forcing huge
// allocations.
const maxFrameSize = 64 << 20

func readFrame(r *bufio.Reader) (frame, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint64(hdr[:])
	if n > maxFrameSize {
		return frame{}, fmt.Errorf("p2p: frame of %d bytes exceeds limit", n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return frame{}, err
	}
	var f frame
	if err := json.Unmarshal(raw, &f); err != nil {
		return frame{}, fmt.Errorf("p2p: bad frame: %w", err)
	}
	return f, nil
}
