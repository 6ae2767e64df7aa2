package p2p

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestSendDelivers(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	got := make(chan Message, 1)
	b.Handle(func(m Message) { got <- m })
	if err := a.Send("b", Message{Kind: "tx", Payload: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Kind != "tx" || string(m.Payload) != "hello" || m.From != "a" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestSendUnknownEndpoint(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	if err := a.Send("ghost", Message{}); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("want ErrUnknownEndpoint, got %v", err)
	}
}

func TestBroadcastReachesAllButSelf(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	var mu sync.Mutex
	seen := map[string]int{}
	for _, name := range []string{"b", "c", "d"} {
		name := name
		ep := net.Endpoint(name)
		ep.Handle(func(m Message) {
			mu.Lock()
			seen[name]++
			mu.Unlock()
		})
	}
	selfCount := 0
	a.Handle(func(Message) { selfCount++ })
	if err := a.Broadcast(Message{Kind: "block"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == 3 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("seen = %v", seen)
	}
	if selfCount != 0 {
		t.Fatal("broadcast delivered to self")
	}
}

func TestRequestResponse(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.HandleRequest(func(m Message) (Message, error) {
		return Message{Kind: m.Kind, Payload: append([]byte("echo:"), m.Payload...)}, nil
	})
	resp, err := a.Request(context.Background(), "b", Message{Kind: "data.fetch", Payload: []byte("D23")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "echo:D23" {
		t.Fatalf("resp = %s", resp.Payload)
	}
}

func TestRequestNoHandler(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	net.Endpoint("b")
	if _, err := a.Request(context.Background(), "b", Message{}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("want ErrNoHandler, got %v", err)
	}
}

func TestRequestErrorPropagates(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	boom := errors.New("not authorized")
	b.HandleRequest(func(Message) (Message, error) { return Message{}, boom })
	if _, err := a.Request(context.Background(), "b", Message{}); !errors.Is(err, boom) {
		t.Fatalf("want handler error, got %v", err)
	}
}

func TestRequestContextCancel(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	release := make(chan struct{})
	defer close(release)
	b.HandleRequest(func(m Message) (Message, error) {
		<-release
		return m, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Request(ctx, "b", Message{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

func TestCloseDetaches(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", Message{}); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("want ErrUnknownEndpoint after close, got %v", err)
	}
	if err := b.Send("a", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

func TestPeersSorted(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	net.Endpoint("zeta")
	net.Endpoint("beta")
	got := a.Peers()
	if len(got) != 2 || got[0] != "beta" || got[1] != "zeta" {
		t.Fatalf("peers = %v", got)
	}
}

func TestConcurrentSends(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	var count int
	var mu sync.Mutex
	done := make(chan struct{})
	b.Handle(func(Message) {
		mu.Lock()
		count++
		if count == 100 {
			close(done)
		}
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Send("b", Message{})
		}()
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		mu.Lock()
		t.Fatalf("only %d/100 delivered", count)
	}
}
