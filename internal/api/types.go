package api

import (
	"encoding/json"
	"fmt"
	"time"

	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/reldb/pmap"
)

// Wire DTOs for the serving edge. Addresses travel as hex strings,
// roots as hex digests, rows in reldb's typed JSON value encoding
// ({"k":kind,"v":payload}) so clients can re-hash them for proof
// verification without guessing types. Update payloads instead accept
// raw JSON scalars, coerced server-side against the view schema —
// human-writable requests, typed storage.

// RegisterRequest registers a new share with this peer as initiator.
type RegisterRequest struct {
	ID          string `json:"id"`
	SourceTable string `json:"sourceTable"`
	ViewName    string `json:"viewName"`
	// LensSpec is a serialized bx.Spec (the same form stored on-chain).
	LensSpec json.RawMessage `json:"lensSpec,omitempty"`
	// Peers are all sharing peers' hex addresses, initiator included.
	Peers []string `json:"peers"`
	// WritePerm maps shared attributes to allowed writer addresses.
	WritePerm map[string][]string `json:"writePerm,omitempty"`
	// Authority optionally names the permission authority.
	Authority string `json:"authority,omitempty"`
}

// AttachRequest binds an already-registered share to this peer's local
// source.
type AttachRequest struct {
	ID          string          `json:"id"`
	SourceTable string          `json:"sourceTable"`
	ViewName    string          `json:"viewName"`
	LensSpec    json.RawMessage `json:"lensSpec,omitempty"`
}

// ShareStatus is one share's lifecycle state as served by GET /v1/shares
// and returned by register and attach: the local binding plus the
// on-chain metadata.
type ShareStatus struct {
	ID          string   `json:"id"`
	SourceTable string   `json:"sourceTable"`
	ViewName    string   `json:"viewName"`
	AppliedSeq  uint64   `json:"appliedSeq"`
	ChainSeq    uint64   `json:"chainSeq"`
	Pending     bool     `json:"pending"`
	Columns     []string `json:"columns,omitempty"`
	Peers       []string `json:"peers,omitempty"`
	// PayloadHash is the on-chain table hash of the most recently
	// finalized update (hex; empty before the first update).
	PayloadHash string `json:"payloadHash,omitempty"`
}

// RowResult is a single-row read, optionally proof-carrying: Root and
// Proof are present iff the request asked for a proof, and verify via
// reldb.VerifyRowProof against the serving replica's row root at Seq.
// That proves membership only; a read bound to the chain goes through
// the light endpoints (light.Client).
type RowResult struct {
	ShareID string      `json:"shareId"`
	Seq     uint64      `json:"seq"`
	Row     reldb.Row   `json:"row"`
	Root    string      `json:"root,omitempty"`
	Proof   *pmap.Proof `json:"proof,omitempty"`
}

// RowOp is one entry-level mutation of the shared view.
type RowOp struct {
	// Op is "upsert" (Row = full row), "delete" (Key = key tuple), or
	// "set" (Key + Set = partial column update).
	Op  string         `json:"op"`
	Row []any          `json:"row,omitempty"`
	Key []any          `json:"key,omitempty"`
	Set map[string]any `json:"set,omitempty"`
}

// UpdateRequest carries a batch of view mutations for one share. All
// ops apply atomically within one proposal.
type UpdateRequest struct {
	Ops []RowOp `json:"ops"`
}

// UpdateResult reports the proposal a view update made. NoChange is
// set when the ops were a no-op against the current view (nothing was
// proposed).
type UpdateResult struct {
	ShareID  string   `json:"shareId"`
	Seq      uint64   `json:"seq,omitempty"`
	TxID     string   `json:"txId,omitempty"`
	Cols     []string `json:"cols,omitempty"`
	NoChange bool     `json:"noChange,omitempty"`
}

// AuditRecord is one on-chain audit-trail entry (audit.Record with
// addresses rendered for transport).
type AuditRecord struct {
	Height      uint64    `json:"height"`
	Time        time.Time `json:"time"`
	TxID        string    `json:"txId"`
	From        string    `json:"from"`
	Fn          string    `json:"fn"`
	ShareID     string    `json:"shareId"`
	OK          bool      `json:"ok"`
	Err         string    `json:"err,omitempty"`
	Seq         uint64    `json:"seq,omitempty"`
	Cols        []string  `json:"cols,omitempty"`
	PayloadHash string    `json:"payloadHash,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// parseAddrs converts hex addresses to identity addresses.
func parseAddrs(hexes []string) ([]identity.Address, error) {
	out := make([]identity.Address, 0, len(hexes))
	for _, h := range hexes {
		a, err := identity.ParseAddress(h)
		if err != nil {
			return nil, fmt.Errorf("bad address %q: %w", h, err)
		}
		out = append(out, a)
	}
	return out, nil
}

func addrStrings(addrs []identity.Address) []string {
	out := make([]string, len(addrs))
	for i, a := range addrs {
		out[i] = a.String()
	}
	return out
}

// coerceValue converts a raw JSON scalar into a typed reldb value of
// the given kind. JSON numbers arrive as float64; ints must be
// integral, times are RFC 3339 strings.
func coerceValue(v any, k reldb.Kind) (reldb.Value, error) {
	if v == nil {
		return reldb.Null(), nil
	}
	switch k {
	case reldb.KindString:
		s, ok := v.(string)
		if !ok {
			return reldb.Value{}, fmt.Errorf("want string, got %T", v)
		}
		return reldb.S(s), nil
	case reldb.KindInt:
		f, ok := v.(float64)
		if !ok || f != float64(int64(f)) {
			return reldb.Value{}, fmt.Errorf("want integer, got %v", v)
		}
		return reldb.I(int64(f)), nil
	case reldb.KindFloat:
		f, ok := v.(float64)
		if !ok {
			return reldb.Value{}, fmt.Errorf("want number, got %T", v)
		}
		return reldb.F(f), nil
	case reldb.KindBool:
		b, ok := v.(bool)
		if !ok {
			return reldb.Value{}, fmt.Errorf("want bool, got %T", v)
		}
		return reldb.B(b), nil
	case reldb.KindTime:
		s, ok := v.(string)
		if !ok {
			return reldb.Value{}, fmt.Errorf("want RFC3339 time string, got %T", v)
		}
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return reldb.Value{}, err
		}
		return reldb.T(t), nil
	default:
		return reldb.Value{}, fmt.Errorf("unsupported kind %v", k)
	}
}

// coerceRow converts raw scalars to a typed row against the schema's
// column kinds (full-width rows, for upserts).
func coerceRow(vals []any, sch reldb.Schema) (reldb.Row, error) {
	if len(vals) != len(sch.Columns) {
		return nil, fmt.Errorf("row has %d values, schema %q has %d columns", len(vals), sch.Name, len(sch.Columns))
	}
	row := make(reldb.Row, len(vals))
	for i, v := range vals {
		cv, err := coerceValue(v, sch.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", sch.Columns[i].Name, err)
		}
		row[i] = cv
	}
	return row, nil
}

// coerceKey converts raw scalars to a typed key tuple against the
// schema's key column kinds.
func coerceKey(vals []any, sch reldb.Schema) (reldb.Row, error) {
	if len(vals) != len(sch.Key) {
		return nil, fmt.Errorf("key has %d values, schema %q keys on %d columns", len(vals), sch.Name, len(sch.Key))
	}
	key := make(reldb.Row, len(vals))
	for i, v := range vals {
		kind, err := columnKind(sch, sch.Key[i])
		if err != nil {
			return nil, fmt.Errorf("key %w", err)
		}
		cv, err := coerceValue(v, kind)
		if err != nil {
			return nil, fmt.Errorf("key column %s: %w", sch.Key[i], err)
		}
		key[i] = cv
	}
	return key, nil
}

// columnKind is the kind of the schema's column col.
func columnKind(sch reldb.Schema, col string) (reldb.Kind, error) {
	i := sch.ColumnIndex(col)
	if i < 0 {
		return 0, fmt.Errorf("column %s not in schema", col)
	}
	return sch.Columns[i].Type, nil
}
