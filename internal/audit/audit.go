// Package audit reconstructs the update history of shared medical data
// from the blockchain alone, exercising the properties the paper claims in
// Section III-B: "immutability, auditability, and transparency enable
// nodes to check and review update history on shared data."
//
// The Auditor replays the main chain from genesis through the contract
// runtime, so the history it reports is exactly what any honest node would
// compute — it does not trust any node's cached receipts.
package audit

import (
	"fmt"
	"time"

	"medshare/internal/chain"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/statedb"
)

// Record is one ledger-derived history entry for a share.
type Record struct {
	// Height and Time locate the transaction on the chain.
	Height uint64
	Time   time.Time
	// TxID is the transaction identifier.
	TxID string
	// From is the verified sender.
	From identity.Address
	// Fn is the contract function invoked.
	Fn string
	// ShareID is the share operated on.
	ShareID string
	// OK reports whether the invocation succeeded; Err carries the
	// deterministic failure otherwise (denied permissions appear here —
	// the audit trail records attempts, not just successes).
	OK  bool
	Err string
	// Seq, Cols, PayloadHash describe the update when Fn touches data.
	Seq         uint64
	Cols        []string
	PayloadHash string
	// Author is the peer that authored the data update (may differ from
	// From on the acknowledgement that finalizes it).
	Author identity.Address
	// Finalized reports whether this event finalized the sequence (all
	// peers acknowledged).
	Finalized bool
}

// Auditor replays a chain through a contract registry.
type Auditor struct {
	store    *chain.Store
	registry *contract.Registry
}

// New creates an auditor for the given chain and contracts.
func New(store *chain.Store, registry *contract.Registry) *Auditor {
	return &Auditor{store: store, registry: registry}
}

// VerifyIntegrity re-validates the whole main chain: block linkage,
// transaction roots and signatures, the one-tx-per-share rule, and
// deterministic re-execution reproducing every block's state root.
func (a *Auditor) VerifyIntegrity() error {
	if err := a.store.VerifyChain(); err != nil {
		return err
	}
	state := statedb.NewStore()
	for _, b := range a.store.MainChain() {
		if b.Header.Height == 0 {
			continue
		}
		for i, tx := range b.Txs {
			rcpt := contract.Execute(a.registry, state, tx, b.Header.Height, b.Header.TimestampMicro)
			if rcpt.OK {
				if err := state.Validate(rcpt.Reads); err == nil {
					state.Commit(rcpt.Writes, statedb.Version{Height: b.Header.Height, TxIndex: i})
				}
			}
		}
		if got := state.Root(); got != b.Header.StateRoot {
			return fmt.Errorf("audit: state root mismatch at height %d: got %x want %x",
				b.Header.Height, got[:6], b.Header.StateRoot[:6])
		}
	}
	return nil
}

// History returns every recorded operation for the share, in chain order.
// An empty shareID returns the history of all shares.
func (a *Auditor) History(shareID string) ([]Record, error) {
	var out []Record
	state := statedb.NewStore()
	for _, b := range a.store.MainChain() {
		if b.Header.Height == 0 {
			continue
		}
		for i, tx := range b.Txs {
			rcpt := contract.Execute(a.registry, state, tx, b.Header.Height, b.Header.TimestampMicro)
			if rcpt.OK {
				if err := state.Validate(rcpt.Reads); err == nil {
					state.Commit(rcpt.Writes, statedb.Version{Height: b.Header.Height, TxIndex: i})
				} else {
					rcpt.OK = false
					rcpt.Err = err.Error()
				}
			}
			if tx.Contract != sharereg.ContractName {
				continue
			}
			if shareID != "" && tx.ShareID != shareID {
				continue
			}
			rec := Record{
				Height:  b.Header.Height,
				Time:    time.UnixMicro(b.Header.TimestampMicro).UTC(),
				TxID:    tx.IDString(),
				From:    tx.From,
				Fn:      tx.Fn,
				ShareID: tx.ShareID,
				OK:      rcpt.OK,
				Err:     rcpt.Err,
			}
			for _, ev := range rcpt.Events {
				p, err := sharereg.DecodeEvent(ev.Payload)
				if err != nil {
					continue
				}
				switch ev.Name {
				case sharereg.EvUpdateRequested:
					rec.Seq = p.Seq
					rec.Cols = p.Cols
					rec.PayloadHash = p.PayloadHash
					rec.Author = p.From
				case sharereg.EvUpdateFinal:
					rec.Seq = p.Seq
					rec.Finalized = true
					rec.Author = p.From
					if rec.Cols == nil {
						rec.Cols = p.Cols
					}
					if rec.PayloadHash == "" {
						rec.PayloadHash = p.PayloadHash
					}
				}
			}
			out = append(out, rec)
		}
	}
	return out, nil
}

// UpdateTimeline returns only the finalized data updates of a share: the
// sequence of (seq, author, columns, payload hash) a reviewer would check
// when tracing how a shared medical record evolved.
func (a *Auditor) UpdateTimeline(shareID string) ([]Record, error) {
	all, err := a.History(shareID)
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, r := range all {
		if r.OK && r.Finalized {
			out = append(out, r)
		}
	}
	return out, nil
}
