package p2p

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// MemNetwork is an in-process network of endpoints with configurable
// symmetric latency and jitter; faultnet layers loss and partitions on
// top. It makes the whole system
// runnable and measurable on one machine, substituting for the multi-host
// deployment the paper assumes.
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*memEndpoint
	latency   time.Duration
	jitter    time.Duration
	rng       *rand.Rand
	rngMu     sync.Mutex
}

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency sets the one-way base latency and jitter.
func WithLatency(base, jitter time.Duration) MemOption {
	return func(n *MemNetwork) { n.latency, n.jitter = base, jitter }
}

// WithSeed seeds the jitter randomness for reproducible runs.
func WithSeed(seed int64) MemOption {
	return func(n *MemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{
		endpoints: make(map[string]*memEndpoint),
		rng:       rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Endpoint attaches a new endpoint with the given unique name.
func (n *MemNetwork) Endpoint(name string) *memEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	ep := &memEndpoint{net: n, name: name, closed: make(chan struct{})}
	n.endpoints[name] = ep
	return ep
}

func (n *MemNetwork) lookup(name string) (*memEndpoint, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	ep, ok := n.endpoints[name]
	return ep, ok
}

func (n *MemNetwork) names(except string) []string {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]string, 0, len(n.endpoints))
	for name := range n.endpoints {
		if name != except {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// delay returns the sampled one-way delay.
func (n *MemNetwork) delay() time.Duration {
	if n.latency == 0 && n.jitter == 0 {
		return 0
	}
	d := n.latency
	if n.jitter > 0 {
		n.rngMu.Lock()
		d += time.Duration(n.rng.Int63n(int64(n.jitter)))
		n.rngMu.Unlock()
	}
	return d
}

// memEndpoint implements Transport on a MemNetwork.
type memEndpoint struct {
	net    *MemNetwork
	name   string
	mu     sync.RWMutex
	h      Handler
	rh     RequestHandler
	closed chan struct{}
}

// Name implements Transport.
func (e *memEndpoint) Name() string { return e.name }

// Handle implements Transport.
func (e *memEndpoint) Handle(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.h = h
}

// HandleRequest implements Transport.
func (e *memEndpoint) HandleRequest(h RequestHandler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rh = h
}

// Send implements Transport.
func (e *memEndpoint) Send(to string, msg Message) error {
	select {
	case <-e.closed:
		return ErrClosed
	default:
	}
	dst, ok := e.net.lookup(to)
	if !ok {
		return ErrUnknownEndpoint
	}
	msg.From = e.name
	delay := e.net.delay()
	go func() {
		if delay > 0 {
			time.Sleep(delay)
		}
		dst.deliver(msg)
	}()
	return nil
}

// Broadcast implements Transport.
func (e *memEndpoint) Broadcast(msg Message) error {
	for _, name := range e.net.names(e.name) {
		if err := e.Send(name, msg); err != nil && err != ErrUnknownEndpoint {
			return err
		}
	}
	return nil
}

// Request implements Transport. Requests model a TCP round trip: they are
// delayed but never dropped.
func (e *memEndpoint) Request(ctx context.Context, to string, msg Message) (Message, error) {
	select {
	case <-e.closed:
		return Message{}, ErrClosed
	default:
	}
	dst, ok := e.net.lookup(to)
	if !ok {
		return Message{}, ErrUnknownEndpoint
	}
	msg.From = e.name
	type result struct {
		resp Message
		err  error
	}
	ch := make(chan result, 1)
	delay := e.net.delay()
	go func() {
		if delay > 0 {
			time.Sleep(delay)
		}
		resp, err := dst.serve(msg)
		if delay > 0 {
			time.Sleep(e.net.delay())
		}
		ch <- result{resp, err}
	}()
	select {
	case <-ctx.Done():
		return Message{}, ctx.Err()
	case r := <-ch:
		return r.resp, r.err
	}
}

// Peers implements Transport.
func (e *memEndpoint) Peers() []string { return e.net.names(e.name) }

// Close implements Transport.
func (e *memEndpoint) Close() error {
	e.net.mu.Lock()
	delete(e.net.endpoints, e.name)
	e.net.mu.Unlock()
	select {
	case <-e.closed:
	default:
		close(e.closed)
	}
	return nil
}

func (e *memEndpoint) deliver(msg Message) {
	select {
	case <-e.closed:
		return
	default:
	}
	e.mu.RLock()
	h := e.h
	e.mu.RUnlock()
	if h != nil {
		h(msg)
	}
}

func (e *memEndpoint) serve(msg Message) (Message, error) {
	select {
	case <-e.closed:
		return Message{}, ErrClosed
	default:
	}
	e.mu.RLock()
	rh := e.rh
	e.mu.RUnlock()
	if rh == nil {
		return Message{}, ErrNoHandler
	}
	return rh(msg)
}
