package p2p

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func tcpPair(t *testing.T) (*TCPTransport, *TCPTransport) {
	t.Helper()
	a, err := NewTCPTransport("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPTransport("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPSend(t *testing.T) {
	a, b := tcpPair(t)
	got := make(chan Message, 1)
	b.Handle(func(m Message) { got <- m })
	if err := a.Send("b", Message{Kind: "tx", Payload: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "a" || m.Kind != "tx" || string(m.Payload) != "p" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("not delivered")
	}
}

func TestTCPRequestResponse(t *testing.T) {
	a, b := tcpPair(t)
	b.HandleRequest(func(m Message) (Message, error) {
		return Message{Kind: m.Kind, Payload: append([]byte("re:"), m.Payload...)}, nil
	})
	resp, err := a.Request(context.Background(), "b", Message{Kind: "data.fetch", Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "re:x" {
		t.Fatalf("resp = %s", resp.Payload)
	}
}

func TestTCPRequestRemoteError(t *testing.T) {
	a, b := tcpPair(t)
	b.HandleRequest(func(Message) (Message, error) {
		return Message{}, errors.New("refused by policy")
	})
	_, err := a.Request(context.Background(), "b", Message{})
	if err == nil || !strings.Contains(err.Error(), "refused by policy") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPRequestNoHandler(t *testing.T) {
	a, _ := tcpPair(t)
	_, err := a.Request(context.Background(), "b", Message{})
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := tcpPair(t)
	if err := a.Send("ghost", Message{}); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPBroadcast(t *testing.T) {
	a, b := tcpPair(t)
	c, err := NewTCPTransport("c", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a.AddPeer("c", c.Addr())

	var mu sync.Mutex
	seen := map[string]bool{}
	mark := func(name string) Handler {
		return func(Message) {
			mu.Lock()
			seen[name] = true
			mu.Unlock()
		}
	}
	b.Handle(mark("b"))
	c.Handle(mark("c"))
	if err := a.Broadcast(Message{Kind: "block"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == 2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("seen = %v", seen)
}

func TestTCPRequestContextTimeout(t *testing.T) {
	a, b := tcpPair(t)
	b.HandleRequest(func(m Message) (Message, error) {
		time.Sleep(300 * time.Millisecond)
		return m, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Request(ctx, "b", Message{}); err == nil {
		t.Fatal("timed-out request succeeded")
	}
}

func TestTCPCloseStopsService(t *testing.T) {
	a, b := tcpPair(t)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", Message{}); err == nil {
		t.Fatal("send to closed endpoint succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
}

func TestTCPLargePayload(t *testing.T) {
	a, b := tcpPair(t)
	b.HandleRequest(func(m Message) (Message, error) { return m, nil })
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := a.Request(context.Background(), "b", Message{Kind: "data.fetch", Payload: big})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Payload) != len(big) {
		t.Fatalf("payload truncated: %d", len(resp.Payload))
	}
}

// --- Connection hardening (pooling, reconnect, deadlines) ---

func TestTCPSendPoolsConnection(t *testing.T) {
	a, b := tcpPair(t)
	var mu sync.Mutex
	var got []string
	b.Handle(func(m Message) {
		mu.Lock()
		got = append(got, string(m.Payload))
		mu.Unlock()
	})
	for i := 0; i < 10; i++ {
		if err := a.Send("b", Message{Kind: "tx", Payload: []byte{'0' + byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 10 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("delivered %d of 10", len(got))
	}
	// Per-connection ordering: frames on the pooled conn arrive in order.
	for i, p := range got {
		if p != string([]byte{'0' + byte(i)}) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if n := b.accepted.Load(); n != 1 {
		t.Fatalf("10 sends used %d connections, want 1 (pooled)", n)
	}
}

func TestTCPSendReconnectsAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t)
	got := make(chan Message, 16)
	b.Handle(func(m Message) { got <- m })
	if err := a.Send("b", Message{Kind: "tx"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("first send not delivered")
	}

	// Restart b on the same address: a's pooled connection is now stale.
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewTCPTransport("b", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	got2 := make(chan Message, 16)
	b2.Handle(func(m Message) { got2 <- m })

	// A write into the dead socket may be silently lost (one-way sends
	// are best-effort); the transport must detect the failure and
	// reconnect so subsequent sends flow again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("sends never reached the restarted peer")
		}
		if err := a.Send("b", Message{Kind: "tx"}); err != nil {
			continue // reconnect window
		}
		select {
		case <-got2:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestTCPIdleInboundConnectionCut(t *testing.T) {
	a, err := NewTCPTransport("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := NewTCPTransport("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	b.idleTimeout = 50 * time.Millisecond
	a.AddPeer("b", b.Addr())

	got := make(chan Message, 16)
	b.Handle(func(m Message) { got <- m })
	if err := a.Send("b", Message{Kind: "tx"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("first send not delivered")
	}

	// Let the inbound connection idle out, then keep sending: the sender
	// must notice the cut and redial.
	time.Sleep(200 * time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("sends never resumed after idle cut")
		}
		if err := a.Send("b", Message{Kind: "tx"}); err != nil {
			continue
		}
		select {
		case m := <-got:
			_ = m
			if n := b.accepted.Load(); n < 2 {
				t.Fatalf("delivery resumed without a reconnect (%d conns)", n)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// writeCounter is a net.Conn that records each Write.
type writeCounter struct {
	net.Conn
	writes [][]byte
}

func (c *writeCounter) Write(b []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}

// TestWriteFrameIsOneWrite: a frame leaves in one Write holding the
// 8-byte big-endian body length, the type byte, kind, sender and error
// text behind varint lengths, and the payload as the rest; it reads
// back as the frame written. The bytes are pinned because a daemon
// reads only this layout.
func TestWriteFrameIsOneWrite(t *testing.T) {
	f := frame{typ: frameReq, msg: Message{Kind: KindSync, From: "a", Payload: []byte("payload")}}
	c := &writeCounter{}
	if err := writeFrame(c, f); err != nil {
		t.Fatal(err)
	}
	if len(c.writes) != 1 {
		t.Fatalf("%d writes for one frame, want 1", len(c.writes))
	}
	want := "\x00\x00\x00\x00\x00\x00\x00\x15" + "\x02" + "\x09data.sync" + "\x01a" + "\x00" + "payload"
	if string(c.writes[0]) != want {
		t.Fatalf("frame bytes %q, want %q", c.writes[0], want)
	}
	got, err := readFrame(bytes.NewReader(c.writes[0]))
	if err != nil || got.typ != f.typ || got.msg.Kind != f.msg.Kind || got.msg.From != f.msg.From ||
		got.err != "" || !bytes.Equal(got.msg.Payload, f.msg.Payload) {
		t.Fatalf("read back %+v, %v; want %+v", got, err, f)
	}
}

// TestReadFrameRefusesJSONFrame: a JSON frame, the layout daemons wrote
// before binary frames, is refused by its first body byte rather than
// misparsed.
func TestReadFrameRefusesJSONFrame(t *testing.T) {
	body := `{"type":"req","msg":{"kind":"data.sync","from":"a","payload":"cGF5bG9hZA=="}}`
	raw := binary.BigEndian.AppendUint64(nil, uint64(len(body)))
	_, err := readFrame(bytes.NewReader(append(raw, body...)))
	if !errors.Is(err, errBadFrame) || !strings.Contains(err.Error(), "unknown frame type 123") {
		t.Fatalf("err = %v, want an unknown frame type", err)
	}
}

// TestReadFrameGrowsWithBody: a header may declare up to maxFrameSize,
// but the buffer grows only as bytes arrive, so a peer that declares
// 64 MiB and sends 10 bytes cannot make the reader allocate 64 MiB.
func TestReadFrameGrowsWithBody(t *testing.T) {
	raw := binary.BigEndian.AppendUint64(nil, maxFrameSize)
	raw = append(raw, "0123456789"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("reading a 10-byte body allocated %d bytes", n)
	}
}

// TestTCPRequestPoolsConnection: sequential requests reuse one pooled
// connection, so the server accepts one.
func TestTCPRequestPoolsConnection(t *testing.T) {
	a, b := tcpPair(t)
	b.HandleRequest(func(m Message) (Message, error) { return m, nil })
	for i := 0; i < 10; i++ {
		resp, err := a.Request(context.Background(), "b", Message{Kind: KindSync, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Payload, []byte{byte(i)}) {
			t.Fatalf("request %d answered %v", i, resp.Payload)
		}
	}
	if n := b.accepted.Load(); n != 1 {
		t.Fatalf("10 requests used %d connections, want 1 (pooled)", n)
	}
}

// TestTCPRequestRedialsStaleConnection: a pooled connection that went
// stale, because the peer restarted or cut it idle, is redialed inside
// Request, so the caller sees no error.
func TestTCPRequestRedialsStaleConnection(t *testing.T) {
	echo := func(m Message) (Message, error) { return m, nil }
	request := func(t *testing.T, a *TCPTransport) {
		t.Helper()
		resp, err := a.Request(context.Background(), "b", Message{Kind: KindSync, Payload: []byte("x")})
		if err != nil || string(resp.Payload) != "x" {
			t.Fatalf("request: %q, %v", resp.Payload, err)
		}
	}
	t.Run("peer restart", func(t *testing.T) {
		a, b := tcpPair(t)
		b.HandleRequest(echo)
		request(t, a)
		addr := b.Addr()
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b2, err := NewTCPTransport("b", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b2.Close() })
		b2.HandleRequest(echo)
		request(t, a)
		if n := b2.accepted.Load(); n != 1 {
			t.Fatalf("restarted peer accepted %d connections, want 1", n)
		}
	})
	t.Run("idle cut", func(t *testing.T) {
		a, err := NewTCPTransport("a", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		b, err := NewTCPTransport("b", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		b.idleTimeout = 50 * time.Millisecond
		a.AddPeer("b", b.Addr())
		b.HandleRequest(echo)
		request(t, a)
		// Wait until b has cut the idle connection.
		deadline := time.Now().Add(5 * time.Second)
		for {
			b.mu.RLock()
			open := len(b.conns)
			b.mu.RUnlock()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("idle connection never cut")
			}
			time.Sleep(10 * time.Millisecond)
		}
		request(t, a)
		if n := b.accepted.Load(); n != 2 {
			t.Fatalf("accepted %d connections, want 2 (one redial)", n)
		}
	})
}

// TestTCPRequestHonoursCancel: cancelling a context with no deadline
// ends a request at once, while the remote handler is still running.
func TestTCPRequestHonoursCancel(t *testing.T) {
	a, b := tcpPair(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // runs before the transports close
	b.HandleRequest(func(m Message) (Message, error) {
		select {
		case <-time.After(2 * time.Second):
		case <-release:
		}
		return m, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := a.Request(ctx, "b", Message{Kind: KindSync})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("cancelled request returned after %v", d)
	}
}
