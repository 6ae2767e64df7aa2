package medshare

import (
	"context"
	"encoding/hex"
	"testing"
	"time"

	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/store"
	"medshare/internal/workload"
)

// TestShareCrashSweepAndResync is the share-level half of the crash
// sweep: a subscriber replica runs over the crash-point injection
// filesystem while a real share commit history goes through it, then
// every injected crash offset is walked and each survivor image must
// recover share state that is verified (Merkle-checked view, never
// ahead of the chain, byte-identical to the on-chain payload hash when
// the sequences match) or detectably stale/corrupt. Finally one stale
// survivor is actually healed: the subscriber restarts from it with the
// same identity, the restore path accepts the stale replica, and the
// existing data-sync machinery catches it up to the on-chain root.
func TestShareCrashSweepAndResync(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	nw, err := NewNetwork(NetworkConfig{BlockInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Stop()

	owner, err := nw.NewPeer("Owner", 0)
	if err != nil {
		t.Fatal(err)
	}
	subID := identity.FromSeed("Subscriber", "subscriber-crash-seed")
	ffs := store.NewFaultFS()
	fstore, err := store.Open(store.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := nw.NewPeerWithOptions("Subscriber", nw.Nodes()-1, PeerOptions{
		Identity: subID,
		Store:    fstore,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The Fig. 1 patient share, owner playing the doctor.
	full := workload.Generate("full", 8, 7)
	d3, err := full.Project("D3", workload.DoctorCols, nil)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := full.Project("D1", workload.PatientCols, nil)
	if err != nil {
		t.Fatal(err)
	}
	owner.DB().PutTable(d3)
	sub.DB().PutTable(d1)

	const shareID = "CRASH&SWEEP"
	err = owner.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          shareID,
		SourceTable: "D3",
		Lens:        workload.LensD31(),
		ViewName:    "D31",
		Peers:       []identity.Address{sub.Address(), owner.Address()},
		WritePerm: map[string][]identity.Address{
			workload.ColDosage:   {owner.Address()},
			workload.ColClinical: {sub.Address(), owner.Address()},
		},
		Authority: owner.Address(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.WaitForShare(ctx, shareID); err != nil {
		t.Fatal(err)
	}
	if err := sub.AttachShare(shareID, "D1", workload.LensD13(), "D13"); err != nil {
		t.Fatal(err)
	}

	// The commit history: five finalized dosage updates, each one a
	// replica commit (and hence a store commit) on the subscriber.
	for i := 0; i < 5; i++ {
		dose := reldb.S(time.Duration(i).String() + "-dose")
		err := owner.UpdateSource("D3", func(tb *reldb.Table) error {
			return tb.Update(reldb.Row{reldb.I(int64(188 + i))}, map[string]reldb.Value{
				workload.ColDosage: dose,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		results, err := owner.SyncShares(ctx, "D3")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if err := owner.WaitFinal(ctx, r.ShareID, r.Seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	meta, err := owner.Meta(shareID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LastPayloadHash == "" {
		t.Fatal("share never updated")
	}

	// Sweep: every write boundary and a stride of interior offsets under
	// the torn model, every sync point under drop-unsynced, a stride of
	// bit flips. Each survivor must verify or be detectably behind.
	total := ffs.TotalBytes()
	stride := total/64 + 1
	var verified, stale, detected int
	var staleImage *store.MemFS
	probe := func(off int64, mode store.CrashMode, label string) {
		t.Helper()
		img := ffs.SurvivorAt(off, mode)
		st, err := store.Open(store.Options{FS: img})
		if err != nil {
			detected++
			return
		}
		defer st.Close()
		for id, sm := range st.Shares() {
			if sm.View == "" {
				continue // tombstone
			}
			if id != shareID {
				t.Fatalf("%s@%d: recovered unknown share %s", label, off, id)
			}
			view, err := st.LoadTable(sm.View)
			if err != nil {
				detected++ // Merkle verification caught the damage
				continue
			}
			if sm.Seq > meta.Seq {
				t.Fatalf("%s@%d: recovered seq %d ahead of chain seq %d", label, off, sm.Seq, meta.Seq)
			}
			if sm.Seq == meta.Seq {
				h := view.Hash()
				if got := hex.EncodeToString(h[:]); got != meta.LastPayloadHash {
					t.Fatalf("%s@%d: recovered view at chain seq %d does not hash to the on-chain root", label, off, sm.Seq)
				}
				verified++
			} else {
				stale++ // behind the chain: the resync path's job
				if staleImage == nil && mode == store.CrashTorn {
					staleImage = img
				}
			}
		}
	}
	for _, off := range ffs.WriteBoundaries() {
		probe(off, store.CrashTorn, "torn")
	}
	for off := int64(0); off <= total; off += stride {
		probe(off, store.CrashTorn, "torn")
	}
	for _, off := range ffs.SyncPoints() {
		probe(off, store.CrashDropUnsynced, "drop-unsynced")
	}
	for off := int64(0); off < total; off += stride {
		probe(off, store.CrashBitFlip, "bitflip")
	}
	t.Logf("share sweep: %d verified, %d stale (resyncable), %d detected over %d journal bytes",
		verified, stale, detected, total)
	if verified == 0 {
		t.Fatal("no survivor recovered the converged view")
	}
	if stale == 0 {
		t.Fatal("no survivor was stale — the sweep never hit mid-history")
	}

	// Heal one stale survivor through the real machinery: restart the
	// subscriber from the kill -9 image with the same identity; the
	// restore path accepts the stale replica and resync catches it up.
	sub.Stop()
	recovered, err := store.Open(store.Options{FS: staleImage})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	sm := recovered.Shares()[shareID]
	if sm.Seq >= meta.Seq {
		t.Fatalf("stale image is not stale (seq %d vs chain %d)", sm.Seq, meta.Seq)
	}
	sub2, err := nw.NewPeerWithOptions("Subscriber-reborn", nw.Nodes()-1, PeerOptions{
		Identity: subID,
		Store:    recovered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub2.AttachShare(shareID, "D1", workload.LensD13(), "D13"); err != nil {
		t.Fatalf("restore from stale image: %v", err)
	}
	info, err := sub2.ShareInfo(shareID)
	if err != nil {
		t.Fatal(err)
	}
	if info.AppliedSeq != sm.Seq {
		t.Fatalf("restored at seq %d, image held %d", info.AppliedSeq, sm.Seq)
	}
	if err := sub2.Resync(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		view, err := sub2.View(shareID)
		if err == nil {
			h := view.Hash()
			if hex.EncodeToString(h[:]) == meta.LastPayloadHash {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("restored subscriber never resynced to the on-chain root")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("stale survivor (seq %d) healed to on-chain seq %d by resync", sm.Seq, meta.Seq)
}
