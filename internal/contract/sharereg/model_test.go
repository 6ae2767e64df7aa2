package sharereg

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// model is a naive share registry: the seven mutating functions written
// from their specification, sharing no code with the contract. Each
// function checks its guards in the documented order and returns the
// first one's sentinel; only a call that passes every guard changes the
// state.
type model struct {
	shares map[string]*Meta
}

func isMember(addrs []identity.Address, a identity.Address) bool {
	for _, x := range addrs {
		if x == a {
			return true
		}
	}
	return false
}

func hasColumn(cols []string, c string) bool {
	for _, x := range cols {
		if x == c {
			return true
		}
	}
	return false
}

// apply runs fn as caller at block time now and returns the sentinel of
// its first failed guard, or nil.
func (md *model) apply(caller identity.Address, fn string, args [][]byte, now int64) error {
	if len(args) != 1 {
		return ErrBadArgs
	}
	arg := args[0]
	if fn == FnRemove {
		m, ok := md.shares[string(arg)]
		switch {
		case !ok:
			return ErrNotFound
		case caller != m.Owner:
			return ErrNotOwner
		}
		delete(md.shares, m.ID)
		return nil
	}
	var (
		ra  RegisterArgs
		ua  UpdateArgs
		aa  AckArgs
		rja RejectArgs
		pa  PermissionArgs
		sa  AuthorityArgs
	)
	decodes := func(v any) bool { return json.Unmarshal(arg, v) == nil }
	switch {
	case fn == FnRegister && decodes(&ra):
		return md.register(caller, ra, now)
	case fn == FnRequestUpdate && decodes(&ua):
		return md.request(caller, ua, now)
	case fn == FnAckUpdate && decodes(&aa):
		return md.ack(caller, aa, now)
	case fn == FnRejectUpdate && decodes(&rja):
		return md.reject(caller, rja, now)
	case fn == FnSetPermission && decodes(&pa):
		return md.setPermission(caller, pa, now)
	case fn == FnSetAuthority && decodes(&sa):
		return md.setAuthority(caller, sa, now)
	}
	return ErrBadArgs
}

func (md *model) register(caller identity.Address, a RegisterArgs, now int64) error {
	if a.ID == "" || len(a.Peers) < 2 || len(a.Columns) == 0 {
		return ErrBadArgs
	}
	if _, ok := md.shares[a.ID]; ok {
		return ErrExists
	}
	if !isMember(a.Peers, caller) {
		return ErrNotPeer
	}
	authority := a.Authority
	if authority.IsZero() {
		authority = caller
	}
	if !isMember(a.Peers, authority) {
		return ErrBadArgs
	}
	// Permission entries are checked in column-name order.
	var permCols []string
	for col := range a.WritePerm {
		permCols = append(permCols, col)
	}
	sort.Strings(permCols)
	for _, col := range permCols {
		if !hasColumn(a.Columns, col) {
			return ErrUnknownColumn
		}
		for _, w := range a.WritePerm[col] {
			if !isMember(a.Peers, w) {
				return ErrBadArgs
			}
		}
	}
	perm := a.WritePerm
	if perm == nil {
		perm = map[string][]identity.Address{}
	}
	md.shares[a.ID] = &Meta{
		ID: a.ID, Peers: a.Peers, Owner: caller, Authority: authority,
		Columns: a.Columns, WritePerm: perm, LensSpec: a.LensSpec, PrioSeed: a.PrioSeed,
		CreatedAtMicro: now, UpdatedAtMicro: now,
	}
	return nil
}

func (md *model) request(caller identity.Address, a UpdateArgs, now int64) error {
	m, ok := md.shares[a.ShareID]
	switch {
	case !ok:
		return ErrNotFound
	case !isMember(m.Peers, caller):
		return ErrNotPeer
	case m.Pending != nil:
		return ErrPending
	case a.BaseSeq != m.Seq:
		return ErrWrongSeq
	case len(a.Cols) == 0:
		return ErrBadArgs
	}
	cols := append([]string(nil), a.Cols...)
	sort.Strings(cols)
	for _, col := range cols {
		if !hasColumn(m.Columns, col) {
			return ErrUnknownColumn
		}
		if !isMember(m.WritePerm[col], caller) {
			return ErrPermission
		}
	}
	m.Pending = &PendingUpdate{
		Seq: m.Seq + 1, From: caller, Cols: cols, PayloadHash: a.PayloadHash, Kind: a.Kind,
		Acked: map[string]bool{caller.String(): true}, RequestedAtMicro: now,
	}
	return nil
}

// pendingFor is the share's pending update addressed by seq, or the
// sentinel of the guard that refuses it.
func (md *model) pendingFor(caller identity.Address, id string, seq uint64) (*Meta, error) {
	m, ok := md.shares[id]
	switch {
	case !ok:
		return nil, ErrNotFound
	case !isMember(m.Peers, caller):
		return nil, ErrNotPeer
	case m.Pending == nil:
		return nil, ErrNoPending
	case m.Pending.Seq != seq:
		return nil, ErrWrongSeq
	}
	return m, nil
}

func (md *model) ack(caller identity.Address, a AckArgs, now int64) error {
	m, err := md.pendingFor(caller, a.ShareID, a.Seq)
	if err != nil {
		return err
	}
	p := m.Pending
	if p.Acked[caller.String()] {
		return ErrAlreadyAcked
	}
	p.Acked[caller.String()] = true
	for _, peer := range m.Peers {
		if !p.Acked[peer.String()] {
			return nil
		}
	}
	m.Seq, m.UpdatedAtMicro = p.Seq, now
	m.LastPayloadHash, m.LastFrom = p.PayloadHash, p.From
	m.Pending = nil
	return nil
}

func (md *model) reject(caller identity.Address, a RejectArgs, now int64) error {
	m, err := md.pendingFor(caller, a.ShareID, a.Seq)
	if err != nil {
		return err
	}
	m.Pending, m.UpdatedAtMicro = nil, now
	return nil
}

func (md *model) setPermission(caller identity.Address, a PermissionArgs, now int64) error {
	m, ok := md.shares[a.ShareID]
	switch {
	case !ok:
		return ErrNotFound
	case caller != m.Authority:
		return ErrNotAuthority
	case !hasColumn(m.Columns, a.Column):
		return ErrUnknownColumn
	}
	for _, w := range a.Writers {
		if !isMember(m.Peers, w) {
			return ErrBadArgs
		}
	}
	m.WritePerm[a.Column], m.UpdatedAtMicro = a.Writers, now
	return nil
}

func (md *model) setAuthority(caller identity.Address, a AuthorityArgs, now int64) error {
	m, ok := md.shares[a.ShareID]
	switch {
	case !ok:
		return ErrNotFound
	case caller != m.Authority:
		return ErrNotAuthority
	case !isMember(m.Peers, a.Authority):
		return ErrBadArgs
	}
	m.Authority, m.UpdatedAtMicro = a.Authority, now
	return nil
}

// Fuzz vocabulary: four principals, two share IDs (and the empty one a
// registration may name), three agreed columns and one foreign column.
var (
	fuzzPrincipals = []*identity.Identity{doctor, patient, researcher, stranger}
	fuzzShares     = []string{"S0", "S1", ""}
	fuzzColumns    = []string{"a", "b", "c", "x"}
	fuzzKinds      = []string{"update", "create", "delete", "table"}
	fuzzFns        = []string{FnRegister, FnRequestUpdate, FnAckUpdate, FnRejectUpdate, FnSetPermission, FnSetAuthority, FnRemove}
)

// regBytes hands out the fuzz input one byte at a time, then zeros.
type regBytes []byte

func (o *regBytes) next() byte {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return b
}

func (o *regBytes) pick(n int) int { return int(o.next()) % n }

// principals is the subset of fuzzPrincipals the next byte selects.
func (o *regBytes) principals() []identity.Address { return subset(o.next()) }

// subset is the subset of fuzzPrincipals the low bits of b select.
func subset(b byte) []identity.Address {
	var out []identity.Address
	for i, id := range fuzzPrincipals {
		if b&(1<<i) != 0 {
			out = append(out, id.Address())
		}
	}
	return out
}

// principal is one principal, or the zero address one time in five.
func (o *regBytes) principal() identity.Address {
	if i := o.pick(len(fuzzPrincipals) + 1); i < len(fuzzPrincipals) {
		return fuzzPrincipals[i].Address()
	}
	return identity.Address{}
}

// columns is the subset of the first n fuzzColumns a byte selects,
// listed in reverse order so the contract's sorting is exercised.
func (o *regBytes) columns(n int) []string {
	var out []string
	b := o.next()
	for i := n - 1; i >= 0; i-- {
		if b&(1<<i) != 0 {
			out = append(out, fuzzColumns[i])
		}
	}
	return out
}

// seq is base, base+1 or base-1, the last wrapping below zero.
func (o *regBytes) seq(base uint64) uint64 {
	switch o.pick(3) {
	case 1:
		return base + 1
	case 2:
		return base - 1
	}
	return base
}

// call decodes one operation: the function, its caller and its
// arguments, drawn against the model's current state so that most
// calls address a live share at a plausible sequence number.
func (o *regBytes) call(md *model) (fn string, caller *identity.Identity, args [][]byte) {
	op := o.next()
	caller = fuzzPrincipals[o.pick(len(fuzzPrincipals))]
	fn = fuzzFns[int(op)%len(fuzzFns)]
	switch op / byte(len(fuzzFns)) % 16 {
	case 14:
		return fn, caller, nil // no argument at all
	case 15:
		return fn, caller, [][]byte{[]byte(`{"shareId":`)} // truncated JSON
	}
	id := fuzzShares[o.pick(2)]
	var cur, pending uint64
	if m, ok := md.shares[id]; ok {
		cur, pending = m.Seq, m.Seq+1
		if m.Pending != nil {
			pending = m.Pending.Seq
		}
	}
	var arg any
	switch fn {
	case FnRegister:
		ra := RegisterArgs{
			ID: fuzzShares[o.pick(len(fuzzShares))], Peers: o.principals(),
			Authority: o.principal(), Columns: o.columns(3),
		}
		for _, col := range fuzzColumns {
			if b := o.next(); b&1 != 0 {
				if ra.WritePerm == nil {
					ra.WritePerm = map[string][]identity.Address{}
				}
				ra.WritePerm[col] = subset(b >> 1)
			}
		}
		if b := o.next(); b&1 != 0 {
			ra.LensSpec = json.RawMessage(fmt.Sprintf(`{"k":%d}`, b))
		}
		if b := o.next(); b&1 != 0 {
			ra.PrioSeed = []byte{b}
		}
		arg = ra
	case FnRequestUpdate:
		arg = UpdateArgs{
			ShareID: id, Cols: o.columns(len(fuzzColumns)), Kind: fuzzKinds[o.pick(len(fuzzKinds))],
			PayloadHash: fmt.Sprintf("%064x", o.next()), BaseSeq: o.seq(cur),
		}
	case FnAckUpdate:
		arg = AckArgs{ShareID: id, Seq: o.seq(pending)}
	case FnRejectUpdate:
		arg = RejectArgs{ShareID: id, Seq: o.seq(pending), Reason: fmt.Sprintf("reason %d", o.next())}
	case FnSetPermission:
		arg = PermissionArgs{ShareID: id, Column: fuzzColumns[o.pick(len(fuzzColumns))], Writers: o.principals()}
	case FnSetAuthority:
		arg = AuthorityArgs{ShareID: id, Authority: o.principal()}
	case FnRemove:
		return fn, caller, [][]byte{[]byte(id)}
	}
	raw, err := json.Marshal(arg)
	if err != nil {
		panic(err) // the argument structs always marshal
	}
	return fn, caller, [][]byte{raw}
}

// normalized is m as it reads back from the world state: the stored
// form is JSON, which does not tell a nil slice from an empty one.
func normalized(t *testing.T, m *Meta) *Meta {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzShareReg runs a sequence of the seven mutating functions from
// four principals through the contract runtime and through the model.
// After every call they must agree on accept or deny, on the sentinel
// of a denial, and on every share's decoded state.
func FuzzShareReg(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := regBytes(data)
		reg := contract.NewRegistry(New())
		state := statedb.NewStore()
		md := &model{shares: map[string]*Meta{}}
		for height := uint64(1); len(in) > 0 && height <= 64; height++ {
			fn, caller, args := in.call(md)
			now := int64(height) * 1000
			// Execute trusts From; admission checks signatures, not the runtime.
			tx := &chain.Tx{Contract: ContractName, Fn: fn, Args: args, Nonce: height, From: caller.Address()}
			rcpt := contract.Execute(reg, state, tx, height, now)
			want := md.apply(caller.Address(), fn, args, now)
			if rcpt.OK != (want == nil) || Sentinel(rcpt.Err) != want {
				t.Fatalf("call %d %s by %s %s: contract ok=%v err=%q, model %v",
					height, fn, caller.Name, args, rcpt.OK, rcpt.Err, want)
			}
			if rcpt.OK {
				state.Commit(rcpt.Writes, statedb.Version{Height: height})
			}
			for _, id := range fuzzShares {
				got, err := ReadMeta(state, id)
				m, live := md.shares[id]
				if !live && errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil || !live {
					t.Fatalf("call %d %s: share %q reads %v, model holds it: %v", height, fn, id, err, live)
				}
				if want := normalized(t, m); !reflect.DeepEqual(got, want) {
					t.Fatalf("call %d %s: share %q\n contract %+v\n model    %+v", height, fn, id, got, want)
				}
			}
		}
	})
}
