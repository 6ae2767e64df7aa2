package core

import (
	"fmt"
	"testing"

	"medshare/internal/bx"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/reldb"
)

// BenchmarkStageProposal times stageProposal alone — get, diff, hash and
// the signed request — after a source edit of `changed` rows, on a share
// in steady state. The cost follows `changed`, not `rows`.
func BenchmarkStageProposal(b *testing.B) {
	for _, rows := range []int{1_000, 10_000, 100_000} {
		for _, changed := range []int{1, 512} {
			b.Run(fmt.Sprintf("rows=%d/changed=%d", rows, changed), func(b *testing.B) {
				benchStageProposal(b, rows, changed)
			})
		}
	}
}

func benchStageProposal(b *testing.B, rows, changed int) {
	nid := identity.MustNew("node")
	n, err := node.New(node.Config{
		NetworkName: "stage-bench", Identity: nid,
		Engine:   consensus.NewPoA(false, nid.Address()),
		Registry: contract.NewRegistry(sharereg.New()),
	})
	if err != nil {
		b.Fatal(err)
	}
	src := reldb.MustNewTable(reldb.Schema{Name: "T", Key: []string{"k"}, Columns: []reldb.Column{
		{Name: "k", Type: reldb.KindInt},
		{Name: "shown", Type: reldb.KindString},
		{Name: "hidden", Type: reldb.KindString},
	}})
	for i := 0; i < rows; i++ {
		src.MustInsert(reldb.Row{reldb.I(int64(i)), reldb.S("v"), reldb.S("h")})
	}
	db := reldb.NewDatabase("bench")
	db.PutTable(src)
	p, err := NewPeer(Config{Identity: identity.MustNew("peer"), DB: db, Node: n})
	if err != nil {
		b.Fatal(err)
	}
	// Bound by hand: staging needs the binding and the replica, not the
	// on-chain registration.
	s := &Share{ID: "S", SourceTable: "T", ViewName: "Sv", prioSeed: []byte("bench-priority-secret"),
		Lens: bx.Project("Sv", []string{"k", "shown"}, nil)}
	view, err := s.Lens.Get(src)
	if err != nil {
		b.Fatal(err)
	}
	db.PutTable(s.seedView(view))
	p.shares[s.ID] = s

	next := 0
	edit := func(round int) {
		val := reldb.S(fmt.Sprintf("v%d", round))
		err := p.UpdateSource("T", func(t *reldb.Table) error {
			// A run of consecutive keys at a moving offset, like the bulk
			// workload's updates. (Scattered keys share no tree paths: the
			// same edit then costs changed·log(rows/changed) node copies
			// and digests, about 4x more at 100k rows than at 1k.)
			next = (next + 7919) % (rows - changed + 1)
			for k := next; k < next+changed; k++ {
				if err := t.Update(reldb.Row{reldb.I(int64(k))}, map[string]reldb.Value{"shown": val}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	stage := func() {
		s.opMu.Lock()
		defer s.opMu.Unlock()
		if _, err := p.stageProposal(s, false); err != nil {
			b.Fatal(err)
		}
	}
	edit(-1)
	stage() // the share's one full get
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		edit(i)
		b.StartTimer()
		stage()
	}
	b.StopTimer()
	if st := p.Stats(); st.FullGets != 1 {
		b.Fatalf("%d full gets in steady state", st.FullGets)
	}
}
