package medshare

import (
	"context"
	"errors"
	"testing"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/daemon"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// openDaemons opens one daemon per participant in cfg.Participants, each
// on a loopback port, with the shared settings of cfg and the data dir
// dataDirs names for it (none when nil). A port bound as 127.0.0.1:0 is
// known only after Open, so each daemon is then pointed at the others'
// bound addresses.
func openDaemons(t *testing.T, cfg daemon.Config, dataDirs map[string]string) []*daemon.Daemon {
	t.Helper()
	var ds []*daemon.Daemon
	for _, p := range cfg.Participants {
		c := cfg
		c.Name, c.Listen, c.DataDir = p.Name, "127.0.0.1:0", dataDirs[p.Name]
		d, err := daemon.Open(c)
		if err != nil {
			closeDaemons(t, ds)
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		for _, other := range ds {
			if other != d {
				d.Transport.AddPeer(other.Transport.Name(), other.Transport.Addr())
			}
		}
	}
	return ds
}

// closeDaemons closes every daemon and fails the test on a close error.
func closeDaemons(t *testing.T, ds []*daemon.Daemon) {
	t.Helper()
	var err error
	for _, d := range ds {
		err = errors.Join(err, d.Close())
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPEndToEnd runs the full protocol across two real TCP processes'
// worth of stack in one test binary: two nodes gossiping blocks over TCP
// and two peers fetching share payloads over the same transports — the
// exact wiring of cmd/medshared.
func TestTCPEndToEnd(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	participants := []daemon.Participant{
		{Name: "Doctor", Seed: "tcp-demo-1", Addr: "127.0.0.1:0"},
		{Name: "Patient", Seed: "tcp-demo-2", Addr: "127.0.0.1:0"},
	}
	ds := openDaemons(t, daemon.Config{
		Participants:  participants,
		Network:       "tcp-e2e",
		BlockInterval: 5 * time.Millisecond,
	}, nil)
	defer closeDaemons(t, ds)
	docID := ds[0].Identity
	docNode, patNode := ds[0].Node, ds[1].Node
	authorities := daemon.Authorities(participants)

	schema := reldb.Schema{
		Name: "records",
		Columns: []reldb.Column{
			{Name: "pid", Type: reldb.KindInt},
			{Name: "dosage", Type: reldb.KindString},
			{Name: "private", Type: reldb.KindString},
		},
		Key: []string{"pid"},
	}
	seed := func(d *daemon.Daemon, private string) *core.Peer {
		s := schema
		if private == "" {
			s.Columns = schema.Columns[:2]
		}
		tbl := reldb.MustNewTable(s)
		if private != "" {
			tbl.MustInsert(reldb.Row{reldb.I(1), reldb.S("low"), reldb.S(private)})
		} else {
			tbl.MustInsert(reldb.Row{reldb.I(1), reldb.S("low")})
		}
		d.DB.PutTable(tbl)
		return d.Peer
	}
	doctor := seed(ds[0], "doctor-notes")
	patient := seed(ds[1], "")

	cols := []string{"pid", "dosage"}
	err := doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID: "S", SourceTable: "records",
		Lens: bx.Project("docV", cols, nil), ViewName: "docV",
		Peers: authorities,
		WritePerm: map[string][]identity.Address{
			"dosage": {docID.Address()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := patient.WaitForShare(ctx, "S"); err != nil {
		t.Fatal(err)
	}
	if err := patient.AttachShare("S", "records", bx.Project("patV", cols, nil), "patV"); err != nil {
		t.Fatal(err)
	}

	// Doctor updates; the payload crosses real TCP.
	err = doctor.UpdateSource("records", func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{reldb.I(1)}, map[string]reldb.Value{"dosage": reldb.S("high")})
	})
	if err != nil {
		t.Fatal(err)
	}
	props, err := doctor.SyncShares(ctx, "records")
	if err != nil {
		t.Fatal(err)
	}
	if err := doctor.WaitFinal(ctx, "S", props[0].Seq); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 30*time.Second, func() bool {
		got, err := patient.Source("records")
		if err != nil {
			return false
		}
		v, err := got.Value(reldb.Row{reldb.I(1)}, "dosage")
		if err != nil {
			return false
		}
		s, _ := v.Str()
		return s == "high"
	})

	// Both nodes agree on state.
	waitFor(t, 30*time.Second, func() bool {
		return docNode.State().Root() == patNode.State().Root() &&
			docNode.Store().Height() == patNode.Store().Height()
	})
}

// TestDaemonRestartRestoresShares restarts two daemons over their data
// dirs the way two medshared processes restart: seed the Fig. 1 tables
// again, re-register on the Doctor and re-attach on the Patient. Each
// side's share must come back from its store at the finalized seq, not
// be re-derived, and the share must take a second update. Both restart:
// an authority restarted alone cannot fetch the blocks it missed.
func TestDaemonRestartRestoresShares(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cfg := daemon.Config{
		Participants: []daemon.Participant{
			{Name: "Doctor", Seed: "restart-1", Addr: "127.0.0.1:0"},
			{Name: "Patient", Seed: "restart-2", Addr: "127.0.0.1:0"},
		},
		Network:       "restart-e2e",
		BlockInterval: 5 * time.Millisecond,
	}
	dirs := map[string]string{"Doctor": t.TempDir(), "Patient": t.TempDir()}
	// bind seeds each role's Fig. 1 table and binds D13&D31 on both sides.
	bind := func(ds []*daemon.Daemon) {
		t.Helper()
		for _, d := range ds {
			tbl, err := workload.RoleTable(workload.Fig1Data("full"), d.Identity.Name)
			if err != nil {
				t.Fatal(err)
			}
			d.DB.PutTable(tbl)
		}
		doctor, patient := ds[0].Identity.Address(), ds[1].Identity.Address()
		if err := ds[0].Peer.RegisterShare(ctx, core.RegisterShareArgs{
			ID: ShareIDD13, SourceTable: "D3", Lens: workload.LensD31(), ViewName: "D31",
			Peers:     []identity.Address{patient, doctor},
			WritePerm: workload.PermD13(patient, doctor),
			Authority: doctor,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := ds[1].Peer.WaitForShare(ctx, ShareIDD13); err != nil {
			t.Fatal(err)
		}
		if err := ds[1].Peer.AttachShare(ShareIDD13, "D1", workload.LensD13(), "D13"); err != nil {
			t.Fatal(err)
		}
	}
	// update sets row 188's dosage on the Doctor and waits until the
	// update is final and the Patient's replica and D1 hold it.
	update := func(ds []*daemon.Daemon, dosage string) uint64 {
		t.Helper()
		doctor, patient := ds[0].Peer, ds[1].Peer
		if err := doctor.UpdateSource("D3", func(tbl *reldb.Table) error {
			return tbl.Update(reldb.Row{reldb.I(188)}, map[string]reldb.Value{workload.ColDosage: reldb.S(dosage)})
		}); err != nil {
			t.Fatal(err)
		}
		props, err := doctor.SyncShares(ctx, "D3")
		if err != nil {
			t.Fatal(err)
		}
		if len(props) != 1 {
			t.Fatalf("proposals = %+v, want one", props)
		}
		seq := props[0].Seq
		if err := doctor.WaitFinal(ctx, ShareIDD13, seq); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 30*time.Second, func() bool {
			info, err := patient.ShareInfo(ShareIDD13)
			if err != nil || info.AppliedSeq != seq {
				return false
			}
			d1, err := patient.Source("D1")
			if err != nil {
				return false
			}
			v, err := d1.Value(reldb.Row{reldb.I(188)}, workload.ColDosage)
			s, _ := v.Str()
			return err == nil && s == dosage
		})
		return seq
	}

	ds := openDaemons(t, cfg, dirs)
	bind(ds)
	seq := update(ds, "two tablets every 6h")
	// Close on a quiet chain: both nodes at one height, nothing pending.
	waitFor(t, 30*time.Second, func() bool {
		return ds[0].Node.Store().Height() == ds[1].Node.Store().Height() &&
			ds[0].Node.PendingTxs() == 0 && ds[1].Node.PendingTxs() == 0
	})
	closeDaemons(t, ds)

	ds = openDaemons(t, cfg, dirs)
	defer closeDaemons(t, ds)
	for _, d := range ds {
		if !d.Store.Stats().CleanShutdown {
			t.Fatalf("%s: store reports no clean shutdown: %+v", d.Identity.Name, d.Store.Stats())
		}
	}
	bind(ds)
	for _, d := range ds {
		restored := false
		for _, h := range d.Peer.History() {
			if h.ShareID == ShareIDD13 && h.Kind == "restored" {
				if h.Seq != seq {
					t.Fatalf("%s restored %s at seq %d, want %d", d.Identity.Name, ShareIDD13, h.Seq, seq)
				}
				restored = true
			}
		}
		if !restored {
			t.Fatalf("%s re-derived %s instead of restoring it: history %+v", d.Identity.Name, ShareIDD13, d.Peer.History())
		}
	}
	if next := update(ds, "one tablet at bedtime"); next != seq+1 {
		t.Fatalf("second update at seq %d, want %d", next, seq+1)
	}
}
