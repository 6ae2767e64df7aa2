package core

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"medshare/internal/identity"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/wire"
)

// The data channel: when the contract notifies peers of an admitted
// update, they fetch the new view payload directly from the updating peer
// ("Request updated data" / "Send updated data" in Fig. 2). The payload
// never touches the blockchain; the chain holds only its hash.

// FetchRequest asks a counterparty for the current payload of a share.
// The request is signed so that only sharing peers can read the data even
// if the transport is reachable by others.
type FetchRequest struct {
	ShareID string `json:"shareId"`
	// MinSeq is the lowest acceptable version (the seq announced in the
	// update event).
	MinSeq uint64 `json:"minSeq"`
	// HaveSeq is the version the requester already holds (0 = none). If
	// the server retains that version it responds with a row-level
	// changeset instead of the full view.
	HaveSeq uint64 `json:"haveSeq,omitempty"`
	// Requester and PubKey identify the caller; Sig signs the canonical
	// request bytes.
	Requester identity.Address `json:"requester"`
	PubKey    []byte           `json:"pubKey"`
	TsMicro   int64            `json:"ts"`
	Sig       []byte           `json:"sig"`
}

// signingBytes is the canonical byte string covered by Sig.
func (r *FetchRequest) signingBytes() []byte {
	out := make([]byte, 0, len(r.ShareID)+8+len(r.Requester)+8)
	out = append(out, "medshare-fetch:"...)
	out = append(out, r.ShareID...)
	out = binary.BigEndian.AppendUint64(out, r.MinSeq)
	out = binary.BigEndian.AppendUint64(out, r.HaveSeq)
	out = append(out, r.Requester[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(r.TsMicro))
	return out
}

// Fetch response modes.
const (
	// FetchModeFull carries the whole view table.
	FetchModeFull byte = 0
	// FetchModeDelta carries a changeset from the requester's HaveSeq.
	FetchModeDelta byte = 1
)

// fetchWireVersion tags the binary fetch-response frame.
const fetchWireVersion = 1

// FetchResponse returns the payload and the version it corresponds to.
// The receiver always verifies the reconstructed table against the
// on-chain payload hash, so a corrupt or malicious delta cannot install
// bad data.
//
// On the wire it is a binary frame (the request stays JSON):
//
//	version byte (fetchWireVersion)
//	shareID: uvarint len ‖ bytes
//	seq: uvarint
//	mode byte
//	payload: reldb.AppendTable (full) or reldb.AppendChangeset (delta)
type FetchResponse struct {
	ShareID string
	Seq     uint64
	// Mode is FetchModeFull or FetchModeDelta.
	Mode byte
	// Payload holds the canonical table (full mode) or the changeset that
	// transforms the requester's HaveSeq version into Seq (delta mode).
	Payload []byte
}

// appendFetchHeader appends the frame header; the payload follows.
func appendFetchHeader(dst []byte, shareID string, seq uint64, mode byte) []byte {
	dst = append(dst, fetchWireVersion)
	dst = wire.AppendBytes(dst, shareID)
	dst = binary.AppendUvarint(dst, seq)
	return append(dst, mode)
}

// decodeFetchResponse parses a frame; Payload aliases raw.
func decodeFetchResponse(raw []byte) (FetchResponse, error) {
	r := frameReader{buf: raw}
	var out FetchResponse
	ver, err := r.byte()
	if err != nil || ver != fetchWireVersion {
		return out, errFrame
	}
	id, err := r.bytes()
	if err != nil {
		return out, err
	}
	out.ShareID = string(id)
	if out.Seq, err = r.uvarint(); err != nil {
		return out, err
	}
	if out.Mode, err = r.byte(); err != nil {
		return out, err
	}
	out.Payload = r.buf
	return out, nil
}

// authorizeShareRequest is the one gate of both data-channel RPCs
// (payload fetch and structural sync): verify the request's signature
// over its canonical bytes, check contract membership, resolve the
// local share binding, and enforce the minimum served version. Serving
// reads only the share's own state (per-share mutex) and chain
// metadata — a request on one share never waits behind operations on
// the peer's other shares.
func (p *Peer) authorizeShareRequest(shareID string, requester identity.Address, pubKey, signed, sig []byte, minSeq uint64) (*Share, uint64, error) {
	if len(pubKey) != ed25519.PublicKeySize {
		return nil, 0, ErrNotAuthorized
	}
	if err := identity.Verify(requester, ed25519.PublicKey(pubKey), signed, sig); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrNotAuthorized, err)
	}
	meta, err := p.Meta(shareID)
	if err != nil {
		return nil, 0, err
	}
	if !metaHasPeer(meta, requester) {
		return nil, 0, fmt.Errorf("%w: %s on %s", ErrNotAuthorized, requester, shareID)
	}
	s, err := p.share(shareID)
	if err != nil {
		return nil, 0, err
	}
	s.stMu.Lock()
	seq := s.AppliedSeq
	s.stMu.Unlock()
	if seq < minSeq {
		return nil, 0, fmt.Errorf("%w: have seq %d, want %d", ErrStaleData, seq, minSeq)
	}
	return s, seq, nil
}

// serveDataFetch is the request handler on the peer's transport endpoint.
func (p *Peer) serveDataFetch(msg p2p.Message) (p2p.Message, error) {
	if msg.Kind != p2p.KindDataFetch {
		return p2p.Message{}, fmt.Errorf("core: unexpected message kind %q", msg.Kind)
	}
	var req FetchRequest
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return p2p.Message{}, fmt.Errorf("core: bad fetch request: %w", err)
	}
	s, seq, err := p.authorizeShareRequest(req.ShareID, req.Requester, req.PubKey, req.signingBytes(), req.Sig, req.MinSeq)
	if err != nil {
		return p2p.Message{}, err
	}
	var prevView *reldb.Table
	s.stMu.Lock()
	if s.prev != nil && req.HaveSeq > 0 && s.prev.seq == req.HaveSeq {
		prevView = s.prev.view
	}
	s.stMu.Unlock()
	view, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return p2p.Message{}, err
	}

	if prevView != nil {
		if cs, err := prevView.Diff(view.Renamed(prevView.Name())); err == nil {
			resp := appendFetchHeader(nil, req.ShareID, seq, FetchModeDelta)
			return p2p.Message{Kind: p2p.KindDataFetch, Payload: reldb.AppendChangeset(resp, cs)}, nil
		}
	}
	resp := appendFetchHeader(nil, req.ShareID, seq, FetchModeFull)
	return p2p.Message{Kind: p2p.KindDataFetch, Payload: reldb.AppendTable(resp, view)}, nil
}

// fetchFrom requests the share payload at version minSeq or newer from
// the peer with the given address: the server may serve a newer version,
// even one it has staged but not submitted, so only acquire decides what
// is installable. When base (the local view at haveSeq) is supplied, the
// server may answer with a changeset, applied to a copy of base; cs is
// that changeset when it is the minimal one from base to the returned
// table, and empty otherwise (a full response, or a delta that was not
// minimal).
func (p *Peer) fetchFrom(ctx context.Context, from identity.Address, shareID string, minSeq, haveSeq uint64, base *reldb.Table) (table *reldb.Table, cs reldb.Changeset, seq uint64, err error) {
	if p.cfg.Transport == nil || p.cfg.Directory == nil {
		return nil, reldb.Changeset{}, 0, fmt.Errorf("core: peer %s has no data channel", p.Name())
	}
	endpoint, ok := p.cfg.Directory.Lookup(from)
	if !ok {
		return nil, reldb.Changeset{}, 0, fmt.Errorf("core: no endpoint known for %s", from)
	}
	req := FetchRequest{
		ShareID:   shareID,
		MinSeq:    minSeq,
		Requester: p.Address(),
		PubKey:    append([]byte(nil), p.cfg.Identity.PublicKey()...),
		TsMicro:   p.cfg.Clock.Now().UnixMicro(),
	}
	if base != nil && haveSeq > 0 {
		req.HaveSeq = haveSeq
	}
	req.Sig = p.cfg.Identity.Sign(req.signingBytes())
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, reldb.Changeset{}, 0, err
	}
	msg, err := p.channelRequest(ctx, endpoint, p2p.Message{Kind: p2p.KindDataFetch, Payload: payload})
	if err != nil {
		return nil, reldb.Changeset{}, 0, fmt.Errorf("core: fetching %s from %s: %w", shareID, from, err)
	}
	resp, err := decodeFetchResponse(msg.Payload)
	if err == nil && resp.ShareID != shareID {
		err = fmt.Errorf("served share %q", resp.ShareID)
	}
	if err != nil {
		return nil, reldb.Changeset{}, 0, fmt.Errorf("core: bad fetch response: %w", err)
	}
	switch resp.Mode {
	case FetchModeDelta:
		if base == nil {
			return nil, reldb.Changeset{}, 0, fmt.Errorf("core: unsolicited delta for %s", shareID)
		}
		cs, err := reldb.DecodeChangeset(resp.Payload)
		if err != nil {
			return nil, reldb.Changeset{}, 0, err
		}
		table := base.Clone()
		if err := table.Apply(cs); err != nil {
			return nil, reldb.Changeset{}, 0, fmt.Errorf("core: applying delta for %s: %w", shareID, err)
		}
		// Only a *minimal* changeset may drive the delta put downstream: a
		// padded one (e.g. delete+insert of an unchanged row) reproduces
		// the correct table — so it passes the payload-hash check — yet
		// would destroy hidden source columns when replayed through a
		// lens's structural-edit policies. Drop those; acquire diffs.
		if err := base.ValidateDiff(table, cs); err != nil {
			return table, reldb.Changeset{}, resp.Seq, nil
		}
		return table, cs, resp.Seq, nil
	case FetchModeFull:
		table, err := reldb.DecodeTable(resp.Payload)
		if err != nil {
			return nil, reldb.Changeset{}, 0, err
		}
		return table, reldb.Changeset{}, resp.Seq, nil
	default:
		return nil, reldb.Changeset{}, 0, fmt.Errorf("core: unknown fetch mode %d", resp.Mode)
	}
}
