package main

import (
	"context"
	"testing"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/daemon"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// TestLightTypesKeyBySchema runs `medsharectl light` against a daemon's
// HTTP edge for two rows whose keys, written as text, look like the
// other kind: an int-keyed row asked for as "007" and a string-keyed row
// asked for as "42". The key is typed by the view schema the fetch
// verified, so both verified reads succeed.
func TestLightTypesKeyBySchema(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	participants := []daemon.Participant{
		{Name: "Doctor", Seed: "light-key-1", Addr: "127.0.0.1:0"},
		{Name: "Patient", Seed: "light-key-2", Addr: "127.0.0.1:0"},
	}
	var ds []*daemon.Daemon
	for i, p := range participants {
		cfg := daemon.Config{
			Name: p.Name, Participants: participants, Listen: "127.0.0.1:0",
			Network: "light-key", BlockInterval: 5 * time.Millisecond,
		}
		if i == 0 {
			cfg.API = "127.0.0.1:0"
		}
		d, err := daemon.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		ds = append(ds, d)
	}
	// Ports bound as :0 are known only now.
	ds[0].Transport.AddPeer(ds[1].Transport.Name(), ds[1].Transport.Addr())
	ds[1].Transport.AddPeer(ds[0].Transport.Name(), ds[0].Transport.Addr())

	for _, tc := range []struct {
		share string
		kind  reldb.Kind
		key   reldb.Value
		raw   string
	}{
		{"ints", reldb.KindInt, reldb.I(7), "007"},
		{"strs", reldb.KindString, reldb.S("42"), "42"},
	} {
		t.Run(tc.share, func(t *testing.T) {
			readTypedKey(ctx, t, ds, tc.share, tc.kind, tc.key, tc.raw)
		})
	}
}

// readTypedKey binds share over a one-row table keyed by a column of
// kind holding key, finalizes an update on it, and reads the row with
// `medsharectl light -key raw`.
func readTypedKey(ctx context.Context, t *testing.T, ds []*daemon.Daemon, share string, kind reldb.Kind, key reldb.Value, raw string) {
	doctor, patient := ds[0].Peer, ds[1].Peer
	schema := reldb.Schema{
		Name:    share,
		Columns: []reldb.Column{{Name: "k", Type: kind}, {Name: "v", Type: reldb.KindString}},
		Key:     []string{"k"},
	}
	for _, d := range ds {
		tbl := reldb.MustNewTable(schema)
		tbl.MustInsert(reldb.Row{key, reldb.S("old")})
		d.DB.PutTable(tbl)
	}
	cols := []string{"k", "v"}
	if err := doctor.RegisterShare(ctx, core.RegisterShareArgs{
		ID: share, SourceTable: share,
		Lens: bx.Project(share+"D", cols, nil), ViewName: share + "D",
		Peers:     []identity.Address{doctor.Address(), patient.Address()},
		WritePerm: map[string][]identity.Address{"v": {doctor.Address()}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := patient.WaitForShare(ctx, share); err != nil {
		t.Fatal(err)
	}
	if err := patient.AttachShare(share, share, bx.Project(share+"P", cols, nil), share+"P"); err != nil {
		t.Fatal(err)
	}
	// A verified read needs a finalized payload on-chain.
	if err := doctor.UpdateSource(share, func(tbl *reldb.Table) error {
		return tbl.Update(reldb.Row{key}, map[string]reldb.Value{"v": reldb.S("new")})
	}); err != nil {
		t.Fatal(err)
	}
	props, err := doctor.SyncShares(ctx, share)
	if err != nil {
		t.Fatal(err)
	}
	if err := doctor.WaitFinal(ctx, share, props[0].Seq); err != nil {
		t.Fatal(err)
	}

	if err := lightCmd([]string{
		"-api", "http://" + ds[0].APIAddr, "-network", "light-key",
		"-participants", "Doctor=light-key-1,Patient=light-key-2",
		"-id", share, "-key", raw,
	}); err != nil {
		t.Fatalf("light read of %s key %q: %v", share, raw, err)
	}
}
