package faultnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"medshare/internal/p2p"
)

// stub is a synchronous in-test transport: Send records the delivery
// immediately, so fault decisions are observable without sleeps or
// scheduler races.
type stub struct {
	name string
	mu   sync.Mutex
	sent []string // "to/kind"
}

func (s *stub) Name() string                     { return s.name }
func (s *stub) Handle(p2p.Handler)               {}
func (s *stub) HandleRequest(p2p.RequestHandler) {}
func (s *stub) Peers() []string                  { return []string{"b", "c"} }
func (s *stub) Close() error                     { return nil }

func (s *stub) Send(to string, msg p2p.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sent = append(s.sent, fmt.Sprintf("%s/%s", to, msg.Kind))
	return nil
}

func (s *stub) Broadcast(msg p2p.Message) error { return nil }

func (s *stub) Request(ctx context.Context, to string, msg p2p.Message) (p2p.Message, error) {
	return msg, nil
}

func (s *stub) deliveries() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.sent...)
}

func wrapStub(seed int64) (*Fabric, *stub, p2p.Transport) {
	f := New(seed)
	inner := &stub{name: "a"}
	return f, inner, f.Wrap(inner)
}

func TestDropAll(t *testing.T) {
	f, inner, ep := wrapStub(1)
	f.SetDropRate(1)
	for i := 0; i < 10; i++ {
		if err := ep.Send("b", p2p.Message{Kind: "tx"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.deliveries(); len(got) != 0 {
		t.Fatalf("delivered %v despite full drop", got)
	}
	c := f.Counters()
	if c.Dropped != 10 || c.Sent != 10 || c.Delivered != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDuplicateAll(t *testing.T) {
	f, inner, ep := wrapStub(1)
	f.SetDuplicateRate(1)
	for i := 0; i < 5; i++ {
		if err := ep.Send("b", p2p.Message{Kind: "tx"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.deliveries(); len(got) != 10 {
		t.Fatalf("delivered %d, want 10 (every message twice)", len(got))
	}
	if c := f.Counters(); c.Duplicated != 5 || c.Delivered != 10 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestReorderSwapsAdjacentMessages(t *testing.T) {
	f, inner, ep := wrapStub(1)
	f.SetReorderRate(1)
	// First message is held back; the second releases it behind itself.
	if err := ep.Send("b", p2p.Message{Kind: "m1"}); err != nil {
		t.Fatal(err)
	}
	if got := inner.deliveries(); len(got) != 0 {
		t.Fatalf("held-back message delivered early: %v", got)
	}
	if err := ep.Send("b", p2p.Message{Kind: "m2"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := inner.deliveries()
		if len(got) == 2 {
			if got[0] != "b/m2" || got[1] != "b/m1" {
				t.Fatalf("order = %v, want [b/m2 b/m1]", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deliveries = %v", got)
		}
		time.Sleep(time.Millisecond)
	}
	if c := f.Counters(); c.Reordered != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestReorderFlushesWithoutSuccessor(t *testing.T) {
	f, inner, ep := wrapStub(1)
	f.SetReorderRate(1)
	if err := ep.Send("b", p2p.Message{Kind: "solo"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(inner.deliveries()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held-back message never flushed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = f
}

func TestPartitionBlocksAcrossGroupsOnly(t *testing.T) {
	f, inner, ep := wrapStub(1)
	f.Partition([]string{"a", "c"}, []string{"b"})
	if err := ep.Send("b", p2p.Message{Kind: "tx"}); err != nil {
		t.Fatal(err) // silently lost, like gossip
	}
	if err := ep.Send("c", p2p.Message{Kind: "tx"}); err != nil {
		t.Fatal(err)
	}
	if got := inner.deliveries(); len(got) != 1 || got[0] != "c/tx" {
		t.Fatalf("deliveries = %v, want only c/tx", got)
	}
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); !errors.Is(err, ErrBlocked) {
		t.Fatalf("cross-partition request err = %v", err)
	}
	if _, err := ep.Request(context.Background(), "c", p2p.Message{}); err != nil {
		t.Fatalf("same-group request err = %v", err)
	}
	// Unlisted endpoints stay reachable.
	if _, err := ep.Request(context.Background(), "d", p2p.Message{}); err != nil {
		t.Fatalf("unlisted endpoint request err = %v", err)
	}

	f.Heal()
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); err != nil {
		t.Fatalf("post-heal request err = %v", err)
	}
	if c := f.Counters(); c.Blocked != 2 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestAsymmetricCut(t *testing.T) {
	f, _, ep := wrapStub(1)
	f.Cut("a", "b")
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); !errors.Is(err, ErrBlocked) {
		t.Fatalf("cut direction err = %v", err)
	}
	// The reverse direction (b -> a) is unaffected: wrap b's side and
	// request back.
	epB := f.Wrap(&stub{name: "b"})
	if _, err := epB.Request(context.Background(), "a", p2p.Message{}); err != nil {
		t.Fatalf("reverse direction err = %v", err)
	}
	f.Heal()
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); err != nil {
		t.Fatalf("post-heal err = %v", err)
	}
}

func TestBlackholeAndRestore(t *testing.T) {
	f, inner, ep := wrapStub(1)
	f.Blackhole("b")
	if err := ep.Send("b", p2p.Message{Kind: "tx"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); !errors.Is(err, ErrBlocked) {
		t.Fatalf("blackholed request err = %v", err)
	}
	if got := inner.deliveries(); len(got) != 0 {
		t.Fatalf("deliveries to blackholed peer: %v", got)
	}

	// Traffic *from* a blackholed endpoint is blocked too (the crashed
	// process neither sends nor receives).
	f.Blackhole("a")
	f.Restore("b")
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); !errors.Is(err, ErrBlocked) {
		t.Fatalf("request from blackholed self err = %v", err)
	}
	f.Restore("a")
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); err != nil {
		t.Fatalf("post-restore request err = %v", err)
	}
}

func TestRequestLoss(t *testing.T) {
	f, _, ep := wrapStub(1)
	f.SetRequestLoss(1, 0)
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); !errors.Is(err, ErrLost) {
		t.Fatalf("err = %v, want ErrLost", err)
	}
	if c := f.Counters(); c.RequestsLost != 1 || c.Requests != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestRequestHangHonorsContext(t *testing.T) {
	f, _, ep := wrapStub(1)
	f.SetRequestLoss(0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ep.Request(ctx, "b", p2p.Message{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("hung request returned before the context expired")
	}
	if c := f.Counters(); c.RequestsHung != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLinkDelaySpike(t *testing.T) {
	f, _, ep := wrapStub(1)
	f.SpikeLink("a", "b", 30*time.Millisecond)
	start := time.Now()
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("spiked request took %v, want >= ~30ms", d)
	}
	// Other links are unaffected.
	start = time.Now()
	if _, err := ep.Request(context.Background(), "c", p2p.Message{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("unspiked request took %v", d)
	}
	f.SpikeLink("a", "b", 0)
	start = time.Now()
	if _, err := ep.Request(context.Background(), "b", p2p.Message{}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("cleared spike still delays: %v", d)
	}
}

// TestDeterministicSampling runs the same single-goroutine schedule under
// the same seed twice and expects identical fault decisions.
func TestDeterministicSampling(t *testing.T) {
	run := func() Counters {
		f, _, ep := wrapStub(42)
		f.SetDropRate(0.3)
		f.SetDuplicateRate(0.2)
		f.SetRequestLoss(0.4, 0)
		for i := 0; i < 200; i++ {
			_ = ep.Send("b", p2p.Message{Kind: "tx"})
			_, _ = ep.Request(context.Background(), "b", p2p.Message{})
		}
		return f.Counters()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different counters:\n%+v\n%+v", a, b)
	}
	if a.Dropped == 0 || a.Duplicated == 0 || a.RequestsLost == 0 {
		t.Fatalf("faults never sampled: %+v", a)
	}
}

// TestWrapMemnetEndToEnd exercises the fabric over a real MemNetwork:
// requests cross the wrapped link, partitions block them, heal restores.
func TestWrapMemnetEndToEnd(t *testing.T) {
	mem := p2p.NewMemNetwork()
	f := New(7)
	a := f.Wrap(mem.Endpoint("a"))
	b := f.Wrap(mem.Endpoint("b"))
	b.HandleRequest(func(m p2p.Message) (p2p.Message, error) {
		return p2p.Message{Kind: m.Kind, Payload: append([]byte("re:"), m.Payload...)}, nil
	})
	resp, err := a.Request(context.Background(), "b", p2p.Message{Kind: "data.fetch", Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "re:x" {
		t.Fatalf("resp = %q", resp.Payload)
	}
	f.Partition([]string{"a"}, []string{"b"})
	if _, err := a.Request(context.Background(), "b", p2p.Message{Kind: "data.fetch"}); !errors.Is(err, ErrBlocked) {
		t.Fatalf("partitioned request err = %v", err)
	}
	f.Heal()
	if _, err := a.Request(context.Background(), "b", p2p.Message{Kind: "data.fetch"}); err != nil {
		t.Fatalf("post-heal request err = %v", err)
	}
}
