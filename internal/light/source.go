package light

import (
	"context"
	"time"

	"medshare/internal/chain"
	"medshare/internal/identity"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
)

// Source is where a light client pulls chain and share material from: a
// full peer reached over the p2p transport, or an HTTP API server. Every
// method also reports the wire bytes moved (request + response payload),
// which the benchmark reports as light.wire_bytes_per_read. Nothing a
// Source returns is trusted — the Client verifies all of it.
type Source interface {
	// Headers returns main-chain headers starting at fromHeight, in
	// height order. An empty slice means the serving tip is below
	// fromHeight. Servers may cap the batch; callers loop.
	Headers(ctx context.Context, fromHeight uint64) ([]chain.Header, int, error)
	// ShareHead returns the share's on-chain metadata with a
	// state-membership proof against a main-chain header.
	ShareHead(ctx context.Context, shareID string) (ShareHead, int, error)
	// Row returns one view row by primary-key tuple with its membership
	// proof and the table-hash preimage fields.
	Row(ctx context.Context, shareID string, key reldb.Row) (RowFetch, int, error)
}

// PeerSource reaches a serving full peer over the p2p transport using
// the binary light-protocol frames.
type PeerSource struct {
	// Transport is the light client's own network endpoint.
	Transport p2p.Transport
	// Endpoint is the serving peer's endpoint name.
	Endpoint string
	// Identity signs requests (authenticity only; a light client is
	// never a sharing peer and never gains replica status).
	Identity *identity.Identity
}

// peerRoundTripTimeout bounds each PeerSource round trip.
const peerRoundTripTimeout = 10 * time.Second

func (s *PeerSource) roundTrip(ctx context.Context, kind string, payload []byte) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, peerRoundTripTimeout)
	defer cancel()
	resp, err := s.Transport.Request(ctx, s.Endpoint, p2p.Message{Kind: kind, Payload: payload})
	if err != nil {
		return nil, len(payload), err
	}
	return resp.Payload, len(payload) + len(resp.Payload), nil
}

// Headers implements Source.
func (s *PeerSource) Headers(ctx context.Context, fromHeight uint64) ([]chain.Header, int, error) {
	req := HeadersRequest{
		FromHeight: fromHeight,
		Requester:  s.Identity.Address(),
		PubKey:     s.Identity.PublicKey(),
		TsMicro:    time.Now().UnixMicro(),
	}
	req.Sig = s.Identity.Sign(req.SigningBytes())
	raw, n, err := s.roundTrip(ctx, p2p.KindHeaders, EncodeHeadersRequest(&req))
	if err != nil {
		return nil, n, err
	}
	hs, err := chain.DecodeHeaders(raw)
	return hs, n, err
}

// ShareHead implements Source.
func (s *PeerSource) ShareHead(ctx context.Context, shareID string) (ShareHead, int, error) {
	req := ShareHeadRequest{
		ShareID:   shareID,
		Requester: s.Identity.Address(),
		PubKey:    s.Identity.PublicKey(),
		TsMicro:   time.Now().UnixMicro(),
	}
	req.Sig = s.Identity.Sign(req.SigningBytes())
	raw, n, err := s.roundTrip(ctx, p2p.KindLightHead, EncodeShareHeadRequest(&req))
	if err != nil {
		return ShareHead{}, n, err
	}
	sh, err := DecodeShareHead(raw)
	return sh, n, err
}

// Row implements Source.
func (s *PeerSource) Row(ctx context.Context, shareID string, key reldb.Row) (RowFetch, int, error) {
	req := RowRequest{
		ShareID:   shareID,
		Key:       key,
		Requester: s.Identity.Address(),
		PubKey:    s.Identity.PublicKey(),
		TsMicro:   time.Now().UnixMicro(),
	}
	req.Sig = s.Identity.Sign(req.SigningBytes())
	raw, n, err := s.roundTrip(ctx, p2p.KindLightRow, EncodeRowRequest(&req))
	if err != nil {
		return RowFetch{}, n, err
	}
	rf, err := DecodeRowFetch(raw)
	return rf, n, err
}
