// Package p2p provides the messaging substrate of the architecture
// (Fig. 2): gossip of transactions and blocks between blockchain nodes,
// and the direct peer-to-peer data channel over which sharing peers fetch
// updated view payloads ("Send updated data" / "Request updated data" —
// raw medical data moves only between the two sharing peers, never through
// the chain or any third party).
//
// Two transports implement the same interface: an in-memory simulated
// network with configurable latency, jitter, and loss (deterministic tests
// and latency sweeps), and a TCP transport used by cmd/medshared.
package p2p

import (
	"context"
	"errors"
)

// Message kinds used by the system. Transports treat kinds opaquely.
const (
	KindTx = "tx"
	// KindTxBatch carries many transactions in one broadcast — the gossip
	// half of group commit: a batch submitted together travels together.
	KindTxBatch = "txbatch"
	KindBlock   = "block"
	// KindSync carries the data channel's one exchange: a delta from the
	// requester's replica when the provider retained that version, or
	// else a top-down walk of the provider's Merkle row tree that
	// transfers only divergent subtrees.
	KindSync = "data.sync"
	// KindDataFetch carries the exchange's first request: the same
	// data.sync frame in a JSON envelope that names the share and the
	// wanted seq (core/syncwire.go).
	KindDataFetch = "data.fetch"
)

// Message is an addressed, typed payload.
type Message struct {
	// Kind routes the message to the right handler.
	Kind string `json:"kind"`
	// From is the sender endpoint name (filled by the transport).
	From string `json:"from"`
	// Payload is kind-specific (JSON in this system).
	Payload []byte `json:"payload"`
}

// Handler consumes one-way messages.
type Handler func(msg Message)

// RequestHandler serves request/response exchanges (the data channel).
type RequestHandler func(msg Message) (Message, error)

// Errors returned by transports.
var (
	ErrUnknownEndpoint = errors.New("p2p: unknown endpoint")
	ErrClosed          = errors.New("p2p: transport closed")
	ErrDropped         = errors.New("p2p: message dropped")
	ErrNoHandler       = errors.New("p2p: endpoint has no request handler")
)

// Transport is one participant's connection to the network.
type Transport interface {
	// Name returns this endpoint's network name.
	Name() string
	// Send delivers a one-way message to the named endpoint.
	Send(to string, msg Message) error
	// Broadcast delivers a one-way message to every other endpoint.
	Broadcast(msg Message) error
	// Request performs a round trip to the named endpoint.
	Request(ctx context.Context, to string, msg Message) (Message, error)
	// Handle registers the one-way message handler.
	Handle(h Handler)
	// HandleRequest registers the request/response handler.
	HandleRequest(h RequestHandler)
	// Peers lists the other endpoints currently known.
	Peers() []string
	// Close detaches the endpoint.
	Close() error
}
