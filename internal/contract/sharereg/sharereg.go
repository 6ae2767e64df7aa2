// Package sharereg implements the system smart contract holding the
// "metadata collection table" of the paper's Fig. 3: one entry per shared
// table, recording the sharing peers, the per-attribute write permission,
// the last update time, and the user with authority to change permissions.
//
// Beyond the static metadata, the contract drives the update protocol of
// Fig. 4/Fig. 5: RequestUpdate verifies attribute-level write permission
// and opens a pending update; sharing peers fetch the new view data
// peer-to-peer and AckUpdate; only when every peer has acknowledged does
// the share's sequence number advance, and only then can the next update
// be requested — the paper's "only when all sharing peers have had the
// newest shared data can they execute further operations".
package sharereg

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// ContractName is the registry name of this contract.
const ContractName = "sharereg"

// Function names accepted by Invoke.
const (
	FnRegister      = "register"
	FnRequestUpdate = "request_update"
	FnAckUpdate     = "ack_update"
	FnRejectUpdate  = "reject_update"
	FnSetPermission = "set_permission"
	FnSetAuthority  = "set_authority"
	FnRemove        = "remove"
)

// Event names emitted by the contract.
const (
	EvRegistered      = "share.registered"
	EvUpdateRequested = "share.update.requested"
	EvUpdateFinal     = "share.update.final"
	EvUpdateRejected  = "share.update.rejected"
	EvPermissionSet   = "share.permission.set"
	EvAuthoritySet    = "share.authority.set"
	EvRemoved         = "share.removed"
)

// Errors surfaced in receipts. They are deterministic strings, identical
// on every node.
var (
	ErrExists        = errors.New("sharereg: share already registered")
	ErrNotFound      = errors.New("sharereg: share not found")
	ErrNotPeer       = errors.New("sharereg: caller is not a sharing peer")
	ErrNotAuthority  = errors.New("sharereg: caller lacks authority to change permission")
	ErrNotOwner      = errors.New("sharereg: caller is not the share owner")
	ErrPermission    = errors.New("sharereg: write permission denied")
	ErrPending       = errors.New("sharereg: previous update not yet acknowledged by all peers")
	ErrNoPending     = errors.New("sharereg: no pending update to acknowledge")
	ErrWrongSeq      = errors.New("sharereg: sequence mismatch")
	ErrBadArgs       = errors.New("sharereg: bad arguments")
	ErrAlreadyAcked  = errors.New("sharereg: peer already acknowledged")
	ErrUnknownColumn = errors.New("sharereg: permission references unknown column")
)

// sentinels lists the errors above, for Sentinel.
var sentinels = []error{
	ErrExists, ErrNotFound, ErrNotPeer, ErrNotAuthority, ErrNotOwner, ErrPermission,
	ErrPending, ErrNoPending, ErrWrongSeq, ErrBadArgs, ErrAlreadyAcked, ErrUnknownColumn,
}

// Sentinel returns the error above that a failed receipt's text starts
// with, or nil. A receipt carries its error as text; Sentinel gives a
// caller the sentinel back, to test the reason with errors.Is.
func Sentinel(receiptErr string) error {
	for _, e := range sentinels {
		if strings.HasPrefix(receiptErr, e.Error()) {
			return e
		}
	}
	return nil
}

// Meta is one entry of the Fig. 3 metadata collection table.
type Meta struct {
	// ID identifies the shared table (e.g. "D13&D31").
	ID string `json:"id"`
	// Peers are the sharing peers' addresses.
	Peers []identity.Address `json:"peers"`
	// Owner is the peer that registered the share (and may remove it).
	Owner identity.Address `json:"owner"`
	// Authority may change write permissions ("Authority to Change
	// Permission" in Fig. 3).
	Authority identity.Address `json:"authority"`
	// Columns lists the agreed attribute names of the shared table.
	Columns []string `json:"columns"`
	// WritePerm maps each attribute to the peers allowed to update it
	// ("Write permission" in Fig. 3).
	WritePerm map[string][]identity.Address `json:"writePerm"`
	// LensSpec is the serialized bx lens the provider uses to derive the
	// view; registering it on-chain is how peers agree "on the structure
	// of the shared table" (Section III-C2).
	LensSpec json.RawMessage `json:"lensSpec,omitempty"`
	// PrioSeed is the share's storage-priority secret: every replica of
	// the shared view derives its row-tree treap priorities from it
	// (HMAC-SHA-256), so the replicas converge to identical — and, to
	// anyone without the secret, unpredictable — tree shapes. Chosen by
	// the registering peer; empty on shares registered before keyed
	// priorities existed (replicas then fall back to unkeyed shapes).
	PrioSeed []byte `json:"prioSeed,omitempty"`
	// CreatedAtMicro and UpdatedAtMicro are block timestamps; the latter
	// is the "Last Update Time" of Fig. 3.
	CreatedAtMicro int64 `json:"createdAt"`
	UpdatedAtMicro int64 `json:"updatedAt"`
	// Seq is the number of fully-acknowledged updates applied so far.
	Seq uint64 `json:"seq"`
	// LastPayloadHash is the payload hash of the most recently finalized
	// update; peers that missed notifications resynchronize against it.
	LastPayloadHash string `json:"lastPayloadHash,omitempty"`
	// LastFrom is the peer that authored the most recently finalized
	// update (the resync fetch target).
	LastFrom identity.Address `json:"lastFrom,omitempty"`
	// Pending describes the in-flight update, if any.
	Pending *PendingUpdate `json:"pending,omitempty"`
}

// PendingUpdate is an update that has been admitted on-chain but not yet
// acknowledged by all sharing peers.
type PendingUpdate struct {
	// Seq is the sequence number this update will commit as.
	Seq uint64 `json:"seq"`
	// From is the updating peer.
	From identity.Address `json:"from"`
	// Cols are the attributes the update touches.
	Cols []string `json:"cols"`
	// PayloadHash is the SHA-256 of the canonical encoding of the new
	// view table; peers verify fetched data against it.
	PayloadHash string `json:"payloadHash"`
	// Kind describes the operation: "create", "update", or "delete"
	// (entry level), or "table" for whole-table replacement (Fig. 4
	// distinguishes entry and table level).
	Kind string `json:"kind"`
	// Acked records which peers have fetched and applied the update.
	Acked map[string]bool `json:"acked"`
	// RequestedAtMicro is the block time of the request.
	RequestedAtMicro int64 `json:"requestedAt"`
}

// allAcked reports whether every sharing peer acknowledged.
func (m *Meta) allAcked() bool {
	if m.Pending == nil {
		return false
	}
	for _, p := range m.Peers {
		if !m.Pending.Acked[p.String()] {
			return false
		}
	}
	return true
}

// hasPeer reports whether addr is one of the sharing peers.
func (m *Meta) hasPeer(addr identity.Address) bool {
	for _, p := range m.Peers {
		if p == addr {
			return true
		}
	}
	return false
}

// mayWrite reports whether addr may update the named column.
func (m *Meta) mayWrite(addr identity.Address, col string) bool {
	allowed, ok := m.WritePerm[col]
	if !ok {
		return false
	}
	for _, a := range allowed {
		if a == addr {
			return true
		}
	}
	return false
}

// Contract is the sharereg chaincode.
type Contract struct{}

// New returns the sharereg contract.
func New() *Contract { return &Contract{} }

// Name implements contract.Contract.
func (*Contract) Name() string { return ContractName }

// Invoke implements contract.Contract.
func (c *Contract) Invoke(stub contract.Stub, fn string, args [][]byte) error {
	switch fn {
	case FnRegister:
		return c.register(stub, args)
	case FnRequestUpdate:
		return c.requestUpdate(stub, args)
	case FnAckUpdate:
		return c.ackUpdate(stub, args)
	case FnRejectUpdate:
		return c.rejectUpdate(stub, args)
	case FnSetPermission:
		return c.setPermission(stub, args)
	case FnSetAuthority:
		return c.setAuthority(stub, args)
	case FnRemove:
		return c.remove(stub, args)
	default:
		return fmt.Errorf("%w: %s", contract.ErrUnknownFunction, fn)
	}
}

// MetaKey is the world-state key of share id's metadata. With ReadMeta
// and DecodeMeta it is all that knows how the registry lays out state.
func MetaKey(id string) string { return "share/" + id }

// ReadMeta reads share id's metadata from a world state, wrapping
// ErrNotFound when the state holds none.
func ReadMeta(state *statedb.Store, id string) (*Meta, error) {
	raw, _, ok := state.Get(MetaKey(id))
	return parseMeta(id, raw, ok)
}

func loadMeta(stub contract.Stub, id string) (*Meta, error) {
	raw, ok := stub.GetState(MetaKey(id))
	return parseMeta(id, raw, ok)
}

// parseMeta decodes share id's stored metadata; found reports whether
// the state held any.
func parseMeta(id string, raw []byte, found bool) (*Meta, error) {
	if !found {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return DecodeMeta(raw)
}

func storeMeta(stub contract.Stub, m *Meta) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("sharereg: encoding meta for %s: %w", m.ID, err)
	}
	stub.PutState(MetaKey(m.ID), raw)
	return nil
}

// RegisterArgs is the JSON argument of FnRegister.
type RegisterArgs struct {
	ID        string                        `json:"id"`
	Peers     []identity.Address            `json:"peers"`
	Authority identity.Address              `json:"authority"`
	Columns   []string                      `json:"columns"`
	WritePerm map[string][]identity.Address `json:"writePerm"`
	LensSpec  json.RawMessage               `json:"lensSpec,omitempty"`
	PrioSeed  []byte                        `json:"prioSeed,omitempty"`
}

func (c *Contract) register(stub contract.Stub, args [][]byte) error {
	if len(args) != 1 {
		return fmt.Errorf("%w: register wants 1 arg", ErrBadArgs)
	}
	var ra RegisterArgs
	if err := json.Unmarshal(args[0], &ra); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	if ra.ID == "" || len(ra.Peers) < 2 || len(ra.Columns) == 0 {
		return fmt.Errorf("%w: id, >=2 peers and columns are required", ErrBadArgs)
	}
	if _, exists := stub.GetState(MetaKey(ra.ID)); exists {
		return fmt.Errorf("%w: %s", ErrExists, ra.ID)
	}
	caller := stub.Caller()
	m := &Meta{
		ID:             ra.ID,
		Peers:          ra.Peers,
		Owner:          caller,
		Authority:      ra.Authority,
		Columns:        append([]string(nil), ra.Columns...),
		WritePerm:      ra.WritePerm,
		LensSpec:       ra.LensSpec,
		PrioSeed:       append([]byte(nil), ra.PrioSeed...),
		CreatedAtMicro: stub.BlockTimeMicro(),
		UpdatedAtMicro: stub.BlockTimeMicro(),
	}
	if !m.hasPeer(caller) {
		return fmt.Errorf("%w: %s registering %s", ErrNotPeer, caller, ra.ID)
	}
	if m.Authority.IsZero() {
		m.Authority = caller
	}
	if !m.hasPeer(m.Authority) {
		return fmt.Errorf("%w: authority %s is not a peer", ErrBadArgs, m.Authority)
	}
	cols := make(map[string]bool, len(m.Columns))
	for _, col := range m.Columns {
		cols[col] = true
	}
	if m.WritePerm == nil {
		m.WritePerm = make(map[string][]identity.Address)
	}
	// In column order, so every node fails a bad entry with one verdict.
	permCols := make([]string, 0, len(m.WritePerm))
	for col := range m.WritePerm {
		permCols = append(permCols, col)
	}
	sort.Strings(permCols)
	for _, col := range permCols {
		if !cols[col] {
			return fmt.Errorf("%w: %s", ErrUnknownColumn, col)
		}
		for _, a := range m.WritePerm[col] {
			if !m.hasPeer(a) {
				return fmt.Errorf("%w: writer %s of column %s is not a peer", ErrBadArgs, a, col)
			}
		}
	}
	if err := storeMeta(stub, m); err != nil {
		return err
	}
	stub.EmitEvent(EvRegistered, mustJSON(EventPayload{ShareID: m.ID, From: caller, Seq: 0}))
	return nil
}

// UpdateArgs is the JSON argument of FnRequestUpdate.
type UpdateArgs struct {
	ShareID string `json:"shareId"`
	// Cols are the attributes changed by this update.
	Cols []string `json:"cols"`
	// PayloadHash is the hex SHA-256 of the new canonical view encoding.
	PayloadHash string `json:"payloadHash"`
	// Kind is "create", "update", "delete", or "table".
	Kind string `json:"kind"`
	// BaseSeq must equal the share's current Seq (optimistic concurrency:
	// the updater derived its new view from that version).
	BaseSeq uint64 `json:"baseSeq"`
}

// EventPayload is the JSON payload of sharereg events.
type EventPayload struct {
	ShareID     string           `json:"shareId"`
	From        identity.Address `json:"from"`
	Seq         uint64           `json:"seq"`
	Cols        []string         `json:"cols,omitempty"`
	PayloadHash string           `json:"payloadHash,omitempty"`
	Kind        string           `json:"kind,omitempty"`
	Column      string           `json:"column,omitempty"`
}

func (c *Contract) requestUpdate(stub contract.Stub, args [][]byte) error {
	if len(args) != 1 {
		return fmt.Errorf("%w: request_update wants 1 arg", ErrBadArgs)
	}
	var ua UpdateArgs
	if err := json.Unmarshal(args[0], &ua); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	m, err := loadMeta(stub, ua.ShareID)
	if err != nil {
		return err
	}
	caller := stub.Caller()
	if !m.hasPeer(caller) {
		return fmt.Errorf("%w: %s on %s", ErrNotPeer, caller, m.ID)
	}
	if m.Pending != nil {
		return fmt.Errorf("%w: share %s pending seq %d", ErrPending, m.ID, m.Pending.Seq)
	}
	if ua.BaseSeq != m.Seq {
		return fmt.Errorf("%w: share %s at seq %d, update based on %d", ErrWrongSeq, m.ID, m.Seq, ua.BaseSeq)
	}
	if len(ua.Cols) == 0 {
		return fmt.Errorf("%w: update declares no columns", ErrBadArgs)
	}
	cols := make(map[string]bool, len(m.Columns))
	for _, col := range m.Columns {
		cols[col] = true
	}
	sorted := append([]string(nil), ua.Cols...)
	sort.Strings(sorted)
	for _, col := range sorted {
		if !cols[col] {
			return fmt.Errorf("%w: %s", ErrUnknownColumn, col)
		}
		if !m.mayWrite(caller, col) {
			return fmt.Errorf("%w: %s may not write %s of %s", ErrPermission, caller, col, m.ID)
		}
	}
	m.Pending = &PendingUpdate{
		Seq:              m.Seq + 1,
		From:             caller,
		Cols:             sorted,
		PayloadHash:      ua.PayloadHash,
		Kind:             ua.Kind,
		Acked:            map[string]bool{caller.String(): true},
		RequestedAtMicro: stub.BlockTimeMicro(),
	}
	// A two-peer share finalizes when the counterparty acks; if the
	// updater were the only peer the pending state would stall, which
	// register() prevents by requiring >=2 peers.
	if err := storeMeta(stub, m); err != nil {
		return err
	}
	stub.EmitEvent(EvUpdateRequested, mustJSON(EventPayload{
		ShareID: m.ID, From: caller, Seq: m.Pending.Seq,
		Cols: sorted, PayloadHash: ua.PayloadHash, Kind: ua.Kind,
	}))
	return nil
}

// AckArgs is the JSON argument of FnAckUpdate.
type AckArgs struct {
	ShareID string `json:"shareId"`
	Seq     uint64 `json:"seq"`
}

func (c *Contract) ackUpdate(stub contract.Stub, args [][]byte) error {
	if len(args) != 1 {
		return fmt.Errorf("%w: ack_update wants 1 arg", ErrBadArgs)
	}
	var aa AckArgs
	if err := json.Unmarshal(args[0], &aa); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	m, err := loadMeta(stub, aa.ShareID)
	if err != nil {
		return err
	}
	caller := stub.Caller()
	if !m.hasPeer(caller) {
		return fmt.Errorf("%w: %s on %s", ErrNotPeer, caller, m.ID)
	}
	if m.Pending == nil {
		return fmt.Errorf("%w: %s", ErrNoPending, m.ID)
	}
	if m.Pending.Seq != aa.Seq {
		return fmt.Errorf("%w: pending seq %d, ack for %d", ErrWrongSeq, m.Pending.Seq, aa.Seq)
	}
	if m.Pending.Acked[caller.String()] {
		return fmt.Errorf("%w: %s on %s seq %d", ErrAlreadyAcked, caller, m.ID, aa.Seq)
	}
	m.Pending.Acked[caller.String()] = true
	finalized := m.allAcked()
	if finalized {
		m.Seq = m.Pending.Seq
		m.UpdatedAtMicro = stub.BlockTimeMicro()
		from := m.Pending.From
		cols := m.Pending.Cols
		hash := m.Pending.PayloadHash
		kind := m.Pending.Kind
		m.LastPayloadHash = hash
		m.LastFrom = from
		m.Pending = nil
		stub.EmitEvent(EvUpdateFinal, mustJSON(EventPayload{
			ShareID: m.ID, From: from, Seq: m.Seq, Cols: cols, PayloadHash: hash, Kind: kind,
		}))
	}
	if err := storeMeta(stub, m); err != nil {
		return err
	}
	return nil
}

// RejectArgs is the JSON argument of FnRejectUpdate.
type RejectArgs struct {
	ShareID string `json:"shareId"`
	Seq     uint64 `json:"seq"`
	// Reason describes why the peer cannot apply the update (e.g. the
	// view edit has no translation into its source under the local lens).
	Reason string `json:"reason"`
}

// rejectUpdate lets a sharing peer abort a pending update it cannot
// apply. The share's sequence number stays unchanged; the proposer rolls
// its replica back on the rejection event. Without this extension (the
// paper does not discuss untranslatable view edits) a put failure on any
// peer would stall the share forever, because the all-acked gate could
// never be passed.
func (c *Contract) rejectUpdate(stub contract.Stub, args [][]byte) error {
	if len(args) != 1 {
		return fmt.Errorf("%w: reject_update wants 1 arg", ErrBadArgs)
	}
	var ra RejectArgs
	if err := json.Unmarshal(args[0], &ra); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	m, err := loadMeta(stub, ra.ShareID)
	if err != nil {
		return err
	}
	caller := stub.Caller()
	if !m.hasPeer(caller) {
		return fmt.Errorf("%w: %s on %s", ErrNotPeer, caller, m.ID)
	}
	if m.Pending == nil {
		return fmt.Errorf("%w: %s", ErrNoPending, m.ID)
	}
	if m.Pending.Seq != ra.Seq {
		return fmt.Errorf("%w: pending seq %d, reject for %d", ErrWrongSeq, m.Pending.Seq, ra.Seq)
	}
	m.Pending = nil
	m.UpdatedAtMicro = stub.BlockTimeMicro()
	if err := storeMeta(stub, m); err != nil {
		return err
	}
	stub.EmitEvent(EvUpdateRejected, mustJSON(EventPayload{
		ShareID: m.ID, From: caller, Seq: ra.Seq, Kind: ra.Reason,
	}))
	return nil
}

// PermissionArgs is the JSON argument of FnSetPermission.
type PermissionArgs struct {
	ShareID string `json:"shareId"`
	Column  string `json:"column"`
	// Writers replaces the allowed-writer list for Column.
	Writers []identity.Address `json:"writers"`
}

func (c *Contract) setPermission(stub contract.Stub, args [][]byte) error {
	if len(args) != 1 {
		return fmt.Errorf("%w: set_permission wants 1 arg", ErrBadArgs)
	}
	var pa PermissionArgs
	if err := json.Unmarshal(args[0], &pa); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	m, err := loadMeta(stub, pa.ShareID)
	if err != nil {
		return err
	}
	caller := stub.Caller()
	if caller != m.Authority {
		return fmt.Errorf("%w: %s on %s (authority is %s)", ErrNotAuthority, caller, m.ID, m.Authority)
	}
	if !contains(m.Columns, pa.Column) {
		return fmt.Errorf("%w: %s", ErrUnknownColumn, pa.Column)
	}
	for _, a := range pa.Writers {
		if !m.hasPeer(a) {
			return fmt.Errorf("%w: writer %s is not a peer", ErrBadArgs, a)
		}
	}
	m.WritePerm[pa.Column] = pa.Writers
	m.UpdatedAtMicro = stub.BlockTimeMicro()
	if err := storeMeta(stub, m); err != nil {
		return err
	}
	stub.EmitEvent(EvPermissionSet, mustJSON(EventPayload{ShareID: m.ID, From: caller, Column: pa.Column}))
	return nil
}

// AuthorityArgs is the JSON argument of FnSetAuthority.
type AuthorityArgs struct {
	ShareID   string           `json:"shareId"`
	Authority identity.Address `json:"authority"`
}

func (c *Contract) setAuthority(stub contract.Stub, args [][]byte) error {
	if len(args) != 1 {
		return fmt.Errorf("%w: set_authority wants 1 arg", ErrBadArgs)
	}
	var aa AuthorityArgs
	if err := json.Unmarshal(args[0], &aa); err != nil {
		return fmt.Errorf("%w: %v", ErrBadArgs, err)
	}
	m, err := loadMeta(stub, aa.ShareID)
	if err != nil {
		return err
	}
	caller := stub.Caller()
	if caller != m.Authority {
		return fmt.Errorf("%w: %s on %s (authority is %s)", ErrNotAuthority, caller, m.ID, m.Authority)
	}
	if !m.hasPeer(aa.Authority) {
		return fmt.Errorf("%w: new authority %s is not a peer", ErrBadArgs, aa.Authority)
	}
	m.Authority = aa.Authority
	m.UpdatedAtMicro = stub.BlockTimeMicro()
	if err := storeMeta(stub, m); err != nil {
		return err
	}
	stub.EmitEvent(EvAuthoritySet, mustJSON(EventPayload{ShareID: m.ID, From: caller}))
	return nil
}

func (c *Contract) remove(stub contract.Stub, args [][]byte) error {
	if len(args) != 1 {
		return fmt.Errorf("%w: remove wants 1 arg (share id)", ErrBadArgs)
	}
	id := string(args[0])
	m, err := loadMeta(stub, id)
	if err != nil {
		return err
	}
	caller := stub.Caller()
	if caller != m.Owner {
		return fmt.Errorf("%w: %s on %s (owner is %s)", ErrNotOwner, caller, m.ID, m.Owner)
	}
	stub.DelState(MetaKey(id))
	stub.EmitEvent(EvRemoved, mustJSON(EventPayload{ShareID: id, From: caller, Seq: m.Seq}))
	return nil
}

// DecodeMeta parses a share's stored metadata: the value under its
// MetaKey, as a state proof carries it.
func DecodeMeta(raw []byte) (*Meta, error) {
	var m Meta
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("sharereg: decoding meta: %w", err)
	}
	return &m, nil
}

// DecodeEvent parses a sharereg event payload.
func DecodeEvent(raw []byte) (EventPayload, error) {
	var p EventPayload
	if err := json.Unmarshal(raw, &p); err != nil {
		return EventPayload{}, fmt.Errorf("sharereg: decoding event: %w", err)
	}
	return p, nil
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// All payloads are plain structs; marshal cannot fail.
		panic(err)
	}
	return b
}
