package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"medshare/internal/contract/sharereg"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
)

// TestWaitFinalIsEventDriven: WaitFinal wakes on the node's block-applied
// signal, so it returns with the finalizing block — within a millisecond
// of the final event the same block publishes — not on a poll tick.
func TestWaitFinalIsEventDriven(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 8, mem.Endpoint("A"), mem.Endpoint("B"))
	events, cancel := h.node.Subscribe(1024)
	defer cancel()

	const updates = 21
	lags := make([]time.Duration, 0, updates)
	for i := 0; i < updates; i++ {
		err := h.a.UpdateSource("T", func(tbl *reldb.Table) error {
			return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"v": reldb.S(time.Now().String())})
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.a.UpdateView(h.ctx, "S", nil)
		if err != nil {
			t.Fatal(err)
		}
		finalAt := make(chan time.Time, 1)
		go func() {
			for ev := range events {
				if ev.Name == sharereg.EvUpdateFinal {
					finalAt <- time.Now()
					return
				}
			}
		}()
		if err := h.a.WaitFinal(h.ctx, "S", res.Seq); err != nil {
			t.Fatal(err)
		}
		lags = append(lags, time.Since(<-finalAt))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	if med := lags[len(lags)/2]; med >= time.Millisecond {
		t.Fatalf("WaitFinal returned a median %v after the finalizing block (all: %v)", med, lags)
	}

	// With no block coming, only the context ends the wait.
	ctx, stop := context.WithTimeout(h.ctx, 20*time.Millisecond)
	defer stop()
	start := time.Now()
	err := h.a.WaitFinal(ctx, "S", updates+100)
	if !errors.Is(err, context.DeadlineExceeded) || time.Since(start) > 5*time.Second {
		t.Fatalf("WaitFinal on an idle chain: err %v after %v, want the context deadline", err, time.Since(start))
	}
}

// TestIsolatedUpdateCostsTwoBlocks: with nothing else in flight, one
// update is exactly two blocks — the proposer's request, then a later,
// separate block carrying the counterparty's ack — and nothing more.
func TestIsolatedUpdateCostsTwoBlocks(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 8, mem.Endpoint("A"), mem.Endpoint("B"))
	blocks := h.node.Store()
	for round := 0; round < 3; round++ {
		start := blocks.Height()
		h.finalizedUpdate(t, int64(round), fmt.Sprintf("round-%d", round))
		if got := blocks.Height() - start; got != 2 {
			t.Fatalf("round %d: the update took %d blocks, want 2", round, got)
		}
		for i, want := range []struct {
			fn   string
			from *Peer
		}{{sharereg.FnRequestUpdate, h.a}, {sharereg.FnAckUpdate, h.b}} {
			b, _ := blocks.AtHeight(start + 1 + uint64(i))
			var got []string
			for _, tx := range b.Txs {
				got = append(got, tx.Fn)
			}
			if len(b.Txs) != 1 || b.Txs[0].Fn != want.fn || b.Txs[0].From != want.from.Address() {
				t.Fatalf("round %d: block %d carries %v, want only %s", round, b.Header.Height, got, want.fn)
			}
		}
	}
}

// TestFailedAckSurfacesFromApply: the reconciler wakes while the ack
// is still committing, but an ack the contract refuses must still be
// what a receive round of one reports.
func TestFailedAckSurfacesFromApply(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 8, mem.Endpoint("A"), mem.Endpoint("B"))
	src0, err := h.b.Source("T")
	if err != nil {
		t.Fatal(err)
	}
	view0, err := h.b.View("S")
	if err != nil {
		t.Fatal(err)
	}
	seq := h.finalizedUpdate(t, 1, "changed")
	h.waitApplied(t, seq)

	// B, restored to before the update, applies it again: fetch, hash
	// check and put succeed, but the update is no longer pending, so the
	// contract refuses the ack.
	h.rollback(t, seq-1, src0, view0)
	view, err := h.a.View("S")
	if err != nil {
		t.Fatal(err)
	}
	err = h.b.applyRound(h.ctx, []sharereg.EventPayload{{ShareID: "S", Seq: seq, From: h.a.Address(), PayloadHash: hashHex(view), Cols: []string{"v"}}})
	if !errors.Is(err, ErrTxFailed) || !strings.Contains(err.Error(), "acking S") {
		t.Fatalf("a round of one with a refused ack returned %v, want the ack failure", err)
	}
}

// TestLightRowServedAtFinalizedVersionWhileProposing: between staging
// its own proposal and that proposal's finality the proposer's replica
// is one version ahead of the chain. A light row read in that window
// must be answered at once from the finalized version — the one a light
// client's proven head commits to — not held until the next version
// lands.
func TestLightRowServedAtFinalizedVersionWhileProposing(t *testing.T) {
	mem := p2p.NewMemNetwork()
	h := newSyncHarness(t, 8, mem.Endpoint("A"), mem.Endpoint("B"))
	seq := h.finalizedUpdate(t, 1, "final")
	meta, err := h.a.Meta("S")
	if err != nil {
		t.Fatal(err)
	}

	err = h.a.UpdateSource("T", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"v": reldb.S("pending")})
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.a.share("S")
	if err != nil {
		t.Fatal(err)
	}
	s.opMu.Lock()
	st, err := h.a.stageProposal(s, false) // replica advanced, nothing submitted
	if err != nil {
		s.opMu.Unlock()
		t.Fatal(err)
	}
	defer func() {
		h.a.rollbackProposal(st, nil)
		s.opMu.Unlock()
	}()

	start := time.Now()
	pr, err := h.a.proveViewConverged("S", reldb.Row{reldb.I(1)})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Seq != seq || rowProofPayloadHex(&pr) != meta.LastPayloadHash {
		t.Fatalf("served seq %d, want the finalized seq %d under the on-chain payload hash", pr.Seq, seq)
	}
	if v, _ := pr.Row[1].Str(); v != "final" {
		t.Fatalf("served value %q, want the finalized one", v)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("serving the finalized version took %v: it waited for the pending one", d)
	}
}
