package p2p

import (
	"context"
	"sort"
	"sync"
)

// MemNetwork is an in-process network of endpoints that delivers every
// message without delay; faultnet layers delay, loss and partitions on
// top. Tests run the whole system on it in one process.
type MemNetwork struct {
	mu        sync.RWMutex
	endpoints map[string]*memEndpoint
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{endpoints: make(map[string]*memEndpoint)}
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
	go dst.deliver(msg)
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

// Request implements Transport. Requests are never dropped; the call
// returns early when ctx ends.
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
	go func() {
		resp, err := dst.serve(msg)
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
