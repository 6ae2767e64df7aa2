package p2p

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
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
	if err == nil || !strings.Contains(err.Error(), "no request handler") {
		t.Fatalf("err = %v", err)
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
// 8-byte big-endian body length and the JSON body, and reads back as
// the frame written.
func TestWriteFrameIsOneWrite(t *testing.T) {
	f := frame{Type: "req", Msg: Message{Kind: KindSync, From: "a", Payload: []byte("payload")}}
	c := &writeCounter{}
	if err := writeFrame(c, f); err != nil {
		t.Fatal(err)
	}
	if len(c.writes) != 1 {
		t.Fatalf("%d writes for one frame, want 1", len(c.writes))
	}
	body, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 8, 8+len(body))
	for i, n := 7, len(body); i >= 0; i, n = i-1, n>>8 {
		want[i] = byte(n)
	}
	want = append(want, body...)
	if !bytes.Equal(c.writes[0], want) {
		t.Fatalf("frame bytes %q, want %q", c.writes[0], want)
	}
	got, err := readFrame(bufio.NewReader(bytes.NewReader(c.writes[0])))
	if err != nil || got.Type != f.Type || got.Msg.Kind != f.Msg.Kind || !bytes.Equal(got.Msg.Payload, f.Msg.Payload) {
		t.Fatalf("read back %+v, %v; want %+v", got, err, f)
	}
}
