package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"medshare/internal/audit"
	"medshare/internal/bx"
	"medshare/internal/chain"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/light"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/statedb"
	"medshare/internal/store"
	"medshare/internal/workload"
)

// Probes time direct calls into each layer's public functions on one
// goroutine, at the data shapes the workloads use: the median of 200
// calls, or of as many as fit a small time budget for the calls that
// take milliseconds (never fewer than 5).

// perLayer lists every per-layer metric: the probes below, plus the
// traced pass's spans, counters and client-side timings.
var perLayer = []metricDef{
	// core: spans that tile one update, then counters, then probes.
	{"core.propose_ms", "ms", true},
	{"core.notify_gap_ms", "ms", true},
	{"core.apply_ack_ms", "ms", true},
	{"core.final_wait_ms", "ms", true},
	{"core.cascade_hop_ms", "ms", true},
	{"core.update_final_p99_ms", "ms", true},
	{"core.cascade_final_p50_ms", "ms", true},
	{"core.cascade_final_p90_ms", "ms", true},
	{"core.batch_txs_per_commit", "count", false},
	{"core.shard_queue_depth_max", "count", true},
	{"core.rpc_attempts_per_update", "count", true},
	{"core.rpc_retries_per_update", "count", true},
	{"core.proposal_retries_per_update", "count", true},
	{"core.sync_rounds_per_update", "count", true},
	{"core.proof_cache_hit_ratio", "ratio", false},
	{"core.prove_view_us", "us", true},
	{"core.light_head_us", "us", true},
	{"core.recover_attach_ms", "ms", true},
	{"core.recovered_stale_sources", "count", true},
	{"core.sync_cold_10k_ms", "ms", true},
	{"core.sync_cold_10k_bytes", "B", true},
	{"core.sync_div16_rounds", "count", true},
	{"node.blocks_per_update", "count", true},
	{"node.txs_per_block", "count", false},
	{"node.commit_wait_sealer_ms", "ms", true},
	{"node.commit_wait_validator_ms", "ms", true},
	{"node.follower_lag_ms", "ms", true},
	{"node.produce_1tx_us", "us", true},
	{"node.produce_32tx_us", "us", true},
	{"node.produce_1tx_1kshares_us", "us", true},
	{"node.recover_ms", "ms", true},
	{"consensus.seal_us", "us", true},
	{"consensus.verify_header_us", "us", true},
	{"chain.tx_build_us", "us", true},
	{"chain.tx_verify_us", "us", true},
	{"chain.block_json_bytes_per_tx", "B", true},
	{"chain.encode_headers_us_per_header", "us", true},
	{"chain.at_height_4k_us", "us", true},
	{"contract.execute_request_us", "us", true},
	{"contract.execute_ack_us", "us", true},
	{"statedb.root_16_us", "us", true},
	{"statedb.root_1k_us", "us", true},
	{"statedb.root_16k_us", "us", true},
	{"statedb.prove_key_16_us", "us", true},
	{"statedb.prove_key_1k_us", "us", true},
	{"statedb.prove_key_16k_us", "us", true},
	{"statedb.commit_us", "us", true},
	{"identity.sign_us", "us", true},
	{"identity.verify_us", "us", true},
	{"bx.get_1k_us", "us", true},
	{"bx.get_10k_us", "us", true},
	{"bx.put_delta_1row_us", "us", true},
	{"bx.put_delta_512row_us", "us", true},
	{"reldb.diff_1row_us", "us", true},
	{"reldb.diff_512row_us", "us", true},
	{"reldb.hash_after_1row_us", "us", true},
	{"reldb.hash_after_512row_us", "us", true},
	{"reldb.prove_row_us", "us", true},
	{"reldb.verify_row_proof_us", "us", true},
	{"p2p.wire_bytes_per_update", "B", true},
	{"p2p.payload_bytes_per_update", "B", true},
	{"p2p.gossip_bytes_per_update", "B", true},
	{"p2p.data_bytes_per_update", "B", true},
	{"p2p.msgs_per_update", "count", true},
	{"p2p.requests_per_update", "count", true},
	{"p2p.fetch_rtt_p50_ms", "ms", true},
	{"p2p.tcp_rtt_1k_us", "us", true},
	{"p2p.tcp_rtt_256k_us", "us", true},
	{"store.fsyncs_per_update", "count", true},
	{"store.fsync_p50_ms", "ms", true},
	{"store.writes_per_update", "count", true},
	{"store.bytes_written_per_update", "B", true},
	{"store.commits_per_update", "count", true},
	{"store.space_amp", "ratio", true},
	{"store.commit_1row_us", "us", true},
	{"store.commit_512row_ms", "ms", true},
	{"store.open_ms", "ms", true},
	{"store.load_table_10k_ms", "ms", true},
	{"api.rows_p50_ms", "ms", true},
	{"api.row_proof_p50_ms", "ms", true},
	{"api.light_read_p50_ms", "ms", true},
	{"api.update_p50_ms", "ms", true},
	{"api.read_p99_ms", "ms", true},
	{"api.write_p99_ms", "ms", true},
	{"api.coalesced_writes_per_batch", "count", false},
	{"api.rows_response_bytes", "B", true},
	{"light.read_cold_us", "us", true},
	{"light.read_cached_us", "us", true},
	{"light.wire_bytes_per_read", "B", true},
	{"light.sync_headers_4k_ms", "ms", true},
	{"light.state_bytes", "B", true},
	{"audit.history_4k_ms", "ms", true},
	{"audit.verify_integrity_4k_ms", "ms", true},
	{"openloop.lag_p99_ms", "ms", true},
	{"openloop.goodput_per_s", "1/s", false},
	{"proc.cpu_s_per_update", "s", true},
	{"proc.heap_inuse_peak_mb", "MB", true},
	{"proc.goroutines_peak", "count", true},
	{"trace.overhead_ratio", "ratio", true},
	{"trace.unattributed_ratio", "ratio", true},
}

// prober accumulates probe results and the first error a timed closure
// hit.
type prober struct {
	out  map[string]float64
	err  error
	tiny bool
}

func (pr *prober) note(err error) {
	if err != nil && pr.err == nil {
		pr.err = err
	}
}

// fast times a microsecond-scale call: 200 iterations.
func (pr *prober) fast(name string, fn func()) {
	pr.out[name] = us(timeMedian(200, 200, 0, fn))
}

// slow times a millisecond-scale call within a 150 ms budget.
func (pr *prober) slow(name string, unit func(time.Duration) float64, fn func()) {
	pr.out[name] = unit(timeMedian(5, 200, 150*time.Millisecond, fn))
}

// ledger is a standalone sealing node plus identities to sign sharereg
// transactions with, driven block by block through TryProduce.
type ledger struct {
	n        *node.Node
	a, b     *identity.Identity
	nonce    uint64
	registry *contract.Registry
}

func newLedger(st *store.Store) (*ledger, error) {
	l := &ledger{a: identity.FromSeed("A", "bench/probe-a"), b: identity.FromSeed("B", "bench/probe-b")}
	l.registry = contract.NewRegistry(sharereg.New())
	n, err := node.New(node.Config{
		NetworkName: networkName, Identity: l.a,
		Engine: consensus.NewPoA(true, l.a.Address()), Registry: l.registry, Store: st,
	})
	l.n = n
	return l, err
}

func (l *ledger) tx(from *identity.Identity, fn, share string, arg any) *chain.Tx {
	raw, err := json.Marshal(arg)
	if err != nil {
		panic(err) // the argument structs always marshal
	}
	l.nonce++
	tx := &chain.Tx{
		Contract: sharereg.ContractName, Fn: fn, Args: [][]byte{raw}, ShareID: share,
		Nonce: l.nonce, TimestampMicro: int64(l.nonce),
	}
	tx.Sign(from)
	return tx
}

func (l *ledger) register(share string) *chain.Tx {
	peers := []identity.Address{l.a.Address(), l.b.Address()}
	return l.tx(l.a, sharereg.FnRegister, share, sharereg.RegisterArgs{
		ID: share, Peers: peers, Columns: []string{"k", "v"},
		WritePerm: map[string][]identity.Address{"v": peers},
	})
}

func (l *ledger) request(share string, base uint64) *chain.Tx {
	return l.tx(l.a, sharereg.FnRequestUpdate, share, sharereg.UpdateArgs{
		ShareID: share, Cols: []string{"v"}, Kind: "update", BaseSeq: base,
		PayloadHash: fmt.Sprintf("%064x", base+1),
	})
}

func (l *ledger) ack(share string, seq uint64) *chain.Tx {
	return l.tx(l.b, sharereg.FnAckUpdate, share, sharereg.AckArgs{ShareID: share, Seq: seq})
}

// commit submits the transactions and produces one block holding them,
// checking that every one succeeded.
func (l *ledger) commit(ctx context.Context, txs ...*chain.Tx) error {
	if err := l.n.SubmitTxBatch(txs); err != nil {
		return err
	}
	if err := l.n.TryProduce(ctx); err != nil {
		return err
	}
	for _, tx := range txs {
		if r, ok := l.n.Receipt(tx.IDString()); !ok || !r.OK {
			return fmt.Errorf("probe tx %s on %s: committed=%v err=%q", tx.Fn, tx.ShareID, ok, r.Err)
		}
	}
	return nil
}

func probeShare(i int) string { return fmt.Sprintf("P%05d", i) }

// runProbes runs every probe and returns name -> value.
func runProbes(ctx context.Context, dir string, tiny bool) (map[string]float64, error) {
	pr := &prober{out: make(map[string]float64), tiny: tiny}
	root := filepath.Join(dir, "probes")
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	for _, probe := range []func(context.Context, string) error{
		pr.cryptoAndChain, pr.stateAndContract, pr.produce, pr.longChain,
		pr.lensAndTable, pr.transport, pr.durableStore, pr.structuralSync,
	} {
		if err := probe(ctx, root); err != nil {
			return nil, err
		}
		if pr.err != nil {
			return nil, pr.err
		}
	}
	return pr.out, nil
}

func (pr *prober) cryptoAndChain(ctx context.Context, _ string) error {
	l, err := newLedger(nil)
	if err != nil {
		return err
	}
	msg := make([]byte, 32)
	sig := l.a.Sign(msg)
	pr.fast("identity.sign_us", func() { sig = l.a.Sign(msg) })
	pr.fast("identity.verify_us", func() {
		pr.note(identity.Verify(l.a.Address(), l.a.PublicKey(), msg, sig))
	})
	var tx *chain.Tx
	pr.fast("chain.tx_build_us", func() { tx = l.request(probeShare(0), 0) })
	pr.fast("chain.tx_verify_us", func() { pr.note(tx.Verify()) })

	engine := consensus.NewPoA(true, l.a.Address())
	b := &chain.Block{Header: chain.Header{Height: 1, PrevHash: chain.Genesis(networkName).Hash()}}
	for i := 0; i < 32; i++ {
		b.Txs = append(b.Txs, l.request(probeShare(i), 0))
	}
	b.Header.TxRoot = b.ComputeTxRoot()
	pr.fast("consensus.seal_us", func() { pr.note(engine.Seal(ctx, b, l.a)) })
	pr.fast("consensus.verify_header_us", func() { pr.note(engine.VerifyHeader(&b.Header)) })
	raw, err := json.Marshal(b)
	if err != nil {
		return err
	}
	pr.out["chain.block_json_bytes_per_tx"] = float64(len(raw)) / float64(len(b.Txs))
	return nil
}

// stateWith builds a world state of n registered shares by executing
// the registrations, so values have the size real metadata has.
func stateWith(l *ledger, n int) (*statedb.Store, error) {
	st := statedb.NewStore()
	for i := 0; i < n; i++ {
		r := contract.Execute(l.registry, st, l.register(probeShare(i)), 1, 1)
		if !r.OK {
			return nil, fmt.Errorf("probe register: %s", r.Err)
		}
		st.Commit(r.Writes, statedb.Version{Height: 1, TxIndex: i})
	}
	return st, nil
}

func (pr *prober) stateAndContract(ctx context.Context, _ string) error {
	l, err := newLedger(nil)
	if err != nil {
		return err
	}
	sizes := []struct {
		n    int
		name string
	}{{16, "16"}, {1000, "1k"}, {16000, "16k"}}
	if pr.tiny {
		sizes[2].n = 2000
	}
	for _, sz := range sizes {
		st, err := stateWith(l, sz.n)
		if err != nil {
			return err
		}
		key := "share/" + probeShare(sz.n/2)
		pr.slow("statedb.root_"+sz.name+"_us", us, func() { _ = st.Root() })
		pr.slow("statedb.prove_key_"+sz.name+"_us", us, func() {
			_, _, _, _, err := st.ProveKey(key)
			pr.note(err)
		})
		if sz.n != 1000 {
			continue
		}
		// Contract execution and the state commit, on the 1k-share state.
		// Execute never mutates the store, so the same transaction runs
		// every iteration.
		req := l.request(probeShare(1), 0)
		var rcpt contract.Receipt
		pr.fast("contract.execute_request_us", func() {
			rcpt = contract.Execute(l.registry, st, req, 2, 2)
			if !rcpt.OK {
				pr.note(fmt.Errorf("probe request: %s", rcpt.Err))
			}
		})
		i := 0
		pr.fast("statedb.commit_us", func() {
			st.Commit(rcpt.Writes, statedb.Version{Height: 2, TxIndex: i})
			i++
		})
		ack := l.ack(probeShare(1), 1)
		pr.fast("contract.execute_ack_us", func() {
			if r := contract.Execute(l.registry, st, ack, 3, 3); !r.OK {
				pr.note(fmt.Errorf("probe ack: %s", r.Err))
			}
		})
	}
	return nil
}

// produce times TryProduce on a standalone node: one transaction, a
// 32-transaction block, and one transaction over a 1,000-share state.
func (pr *prober) produce(ctx context.Context, _ string) error {
	for _, c := range []struct {
		name          string
		shares, batch int
	}{
		{"node.produce_1tx_us", 32, 1},
		{"node.produce_32tx_us", 32, 32},
		{"node.produce_1tx_1kshares_us", 1000, 1},
	} {
		l, err := newLedger(nil)
		if err != nil {
			return err
		}
		for lo := 0; lo < c.shares; lo += 200 {
			var txs []*chain.Tx
			for i := lo; i < min(lo+200, c.shares); i++ {
				txs = append(txs, l.register(probeShare(i)))
			}
			if err := l.commit(ctx, txs...); err != nil {
				return err
			}
		}
		// Alternate request and ack blocks over the first batch shares:
		// each iteration is one valid block of batch transactions.
		seq, acking := uint64(0), false
		iters := 60
		if pr.tiny {
			iters = 6
		}
		samples := make([]float64, 0, iters)
		for it := 0; it < iters; it++ {
			txs := make([]*chain.Tx, c.batch)
			for i := range txs {
				if acking {
					txs[i] = l.ack(probeShare(i), seq+1)
				} else {
					txs[i] = l.request(probeShare(i), seq)
				}
			}
			if err := l.n.SubmitTxBatch(txs); err != nil {
				return err
			}
			t := time.Now()
			if err := l.n.TryProduce(ctx); err != nil {
				return err
			}
			samples = append(samples, float64(time.Since(t)))
			if r, ok := l.n.Receipt(txs[0].IDString()); !ok || !r.OK {
				return fmt.Errorf("%s: block tx failed: %q", c.name, r.Err)
			}
			if acking {
				seq++
			}
			acking = !acking
		}
		pr.out[c.name] = us(time.Duration(median(samples)))
	}
	return nil
}

// headerSource serves a light client's header sync from a full peer's
// LightHeaders pages, through the wire encoding.
type headerSource struct{ peer *core.Peer }

func (s headerSource) Headers(_ context.Context, from uint64) ([]chain.Header, int, error) {
	raw := chain.EncodeHeaders(s.peer.LightHeaders(from))
	hs, err := chain.DecodeHeaders(raw)
	return hs, len(raw), err
}

func (s headerSource) ShareHead(context.Context, string) (light.ShareHead, int, error) {
	return light.ShareHead{}, 0, fmt.Errorf("header-only source")
}

func (s headerSource) Row(context.Context, string, reldb.Row) (light.RowFetch, int, error) {
	return light.RowFetch{}, 0, fmt.Errorf("header-only source")
}

// longChain builds the chain 2,000 trickled updates leave behind — 4,000
// one-transaction blocks on one share — on a durable store, then probes
// everything whose cost grows with chain height.
func (pr *prober) longChain(ctx context.Context, root string) error {
	updates := 2000
	if pr.tiny {
		updates = 50
	}
	dir := filepath.Join(root, "chain")
	// fsync off while building: 4,000 block commits are set-up here, not
	// the thing measured; the reopen below reads the same bytes.
	st, err := store.Open(store.Options{Dir: dir, NoSync: true})
	if err != nil {
		return err
	}
	l, err := newLedger(st)
	if err != nil {
		return err
	}
	share := probeShare(0)
	if err := l.commit(ctx, l.register(share)); err != nil {
		return err
	}
	for seq := uint64(0); seq < uint64(updates); seq++ {
		if err := l.commit(ctx, l.request(share, seq)); err != nil {
			return err
		}
		if err := l.commit(ctx, l.ack(share, seq+1)); err != nil {
			return err
		}
	}
	cs := l.n.Store()
	height := cs.Height()
	pr.fast("chain.at_height_4k_us", func() {
		if _, ok := cs.AtHeight(height / 2); !ok {
			pr.note(fmt.Errorf("AtHeight(%d) missing", height/2))
		}
	})
	var headers []chain.Header
	for _, b := range cs.MainChain() {
		headers = append(headers, b.Header)
	}
	pr.out["chain.encode_headers_us_per_header"] = us(timeMedian(5, 200, 150*time.Millisecond, func() {
		_ = chain.EncodeHeaders(headers)
	})) / float64(len(headers))

	aud := audit.New(cs, l.registry)
	pr.slow("audit.history_4k_ms", ms, func() {
		recs, err := aud.History(share)
		pr.note(err)
		if len(recs) != 2*updates+1 {
			pr.note(fmt.Errorf("audit history has %d records, want %d", len(recs), 2*updates+1))
		}
	})
	pr.slow("audit.verify_integrity_4k_ms", ms, func() { pr.note(aud.VerifyIntegrity()) })

	peer, err := core.NewPeer(core.Config{Identity: l.a, DB: reldb.NewDatabase("probe"), Node: l.n})
	if err != nil {
		return err
	}
	engine := consensus.NewPoA(true, l.a.Address())
	pr.slow("light.sync_headers_4k_ms", ms, func() {
		lc, err := light.New(light.Config{Network: networkName, Verify: engine.VerifyHeader, Source: headerSource{peer}})
		pr.note(err)
		n, err := lc.SyncHeaders(ctx)
		pr.note(err)
		if uint64(n) != height {
			pr.note(fmt.Errorf("light client synced %d of %d headers", n, height))
		}
	})

	// Crash-style restart from the same bytes: no clean checkpoint.
	if err := st.Close(); err != nil {
		return err
	}
	var openMs, recoverMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		st2, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			return err
		}
		t1 := time.Now()
		l2, err := newLedger(st2)
		t2 := time.Now()
		if err == nil && l2.n.Store().Height() != height {
			err = fmt.Errorf("recovered height %d, want %d", l2.n.Store().Height(), height)
		}
		st2.Close()
		if err != nil {
			return err
		}
		openMs, recoverMs = append(openMs, ms(t1.Sub(t0))), append(recoverMs, ms(t2.Sub(t1)))
	}
	pr.out["store.open_ms"] = median(openMs)
	pr.out["node.recover_ms"] = median(recoverMs)
	return nil
}

// editRows rewrites dosage on n consecutive patient rows starting at lo.
func editRows(t *reldb.Table, lo, n int, val string) error {
	for r := lo; r < lo+n; r++ {
		key := reldb.Row{reldb.I(int64(firstPatientID + r))}
		if err := t.Update(key, map[string]reldb.Value{workload.ColDosage: reldb.S(val)}); err != nil {
			return err
		}
	}
	return nil
}

// lensAndTable probes bx and reldb on the Fig. 1 tables: get at 1k and
// 10k rows, and the diff / delta put / incremental hash of a 1-row and a
// 512-row edit of the 10k-row view.
func (pr *prober) lensAndTable(context.Context, string) error {
	big := 10000
	if pr.tiny {
		big = 1000
	}
	for _, c := range []struct {
		name string
		n    int
	}{{"bx.get_1k_us", 1000}, {"bx.get_10k_us", big}} {
		d3, err := genRecords(c.n, 1).Project("D3", workload.DoctorCols, nil)
		if err != nil {
			return err
		}
		l := lensD31()
		pr.slow(c.name, us, func() {
			_, err := l.Get(d3)
			pr.note(err)
		})
	}
	full := genRecords(big, 1)
	d1, err := full.Project("D1", workload.PatientCols, nil)
	if err != nil {
		return err
	}
	view, err := lensD13().Get(d1)
	if err != nil {
		return err
	}
	_ = view.Hash() // the steady state: digests cached before an edit
	for _, c := range []struct {
		name string
		rows int
	}{{"1row", 1}, {"512row", 512}} {
		edited := view.Clone()
		if err := editRows(edited, 100, c.rows, "probe"); err != nil {
			return err
		}
		var cs reldb.Changeset
		pr.slow("reldb.diff_"+c.name+"_us", us, func() {
			var err error
			cs, err = view.Diff(edited)
			pr.note(err)
		})
		if cs.Size() != c.rows {
			return fmt.Errorf("probe diff found %d changes, want %d", cs.Size(), c.rows)
		}
		l := lensD13()
		pr.slow("bx.put_delta_"+c.name+"_us", us, func() {
			_, _, err := bx.PutDelta(l, d1, edited, cs)
			pr.note(err)
		})
		// Hash after the edit: each iteration edits a fresh clone of the
		// hashed view (untimed) and times only the rehash.
		i := 0
		samples := make([]float64, 0, 50)
		for len(samples) < cap(samples) {
			fresh := view.Clone()
			if err := editRows(fresh, 100, c.rows, fmt.Sprint("h", i)); err != nil {
				return err
			}
			i++
			t := time.Now()
			_ = fresh.Hash()
			samples = append(samples, float64(time.Since(t)))
		}
		pr.out["reldb.hash_after_"+c.name+"_us"] = us(time.Duration(median(samples)))
	}
	key := reldb.Row{reldb.I(firstPatientID + 500)}
	row, proof, err := view.ProveRow(key)
	if err != nil {
		return err
	}
	pr.fast("reldb.prove_row_us", func() {
		_, _, err := view.ProveRow(key)
		pr.note(err)
	})
	rootHash := view.RowsRoot()
	pr.fast("reldb.verify_row_proof_us", func() {
		if !reldb.VerifyRowProof(rootHash, row, proof) {
			pr.note(fmt.Errorf("probe row proof does not verify"))
		}
	})
	return nil
}

// transport times an echo Request between two TCP transports.
func (pr *prober) transport(ctx context.Context, _ string) error {
	a, err := p2p.NewTCPTransport("a", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := p2p.NewTCPTransport("b", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())
	b.HandleRequest(func(m p2p.Message) (p2p.Message, error) { return m, nil })
	for _, c := range []struct {
		name string
		size int
	}{{"p2p.tcp_rtt_1k_us", 1 << 10}, {"p2p.tcp_rtt_256k_us", 256 << 10}} {
		msg := p2p.Message{Kind: p2p.KindDataFetch, Payload: make([]byte, c.size)}
		pr.slow(c.name, us, func() {
			resp, err := a.Request(ctx, "b", msg)
			pr.note(err)
			if err == nil && len(resp.Payload) != c.size {
				pr.note(fmt.Errorf("echo returned %d of %d bytes", len(resp.Payload), c.size))
			}
		})
	}
	return nil
}

// durableStore probes the store on a real directory with fsync on: the
// commit of a 10k-row table after a 1-row and a 512-row edit, and a
// verified load of the table after reopening.
func (pr *prober) durableStore(_ context.Context, root string) error {
	n := 10000
	if pr.tiny {
		n = 1000
	}
	dir := filepath.Join(root, "store")
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	d3, err := genRecords(n, 1).Project("D3", workload.DoctorCols, nil)
	if err != nil {
		st.Close()
		return err
	}
	put := func(t *reldb.Table) {
		pr.note(st.Commit(func(b *store.Batch) error { return b.PutTable(t) }))
	}
	put(d3)
	i := 0
	commitAfter := func(rows int) func() {
		return func() {
			// The edit is part of the timed call but costs microseconds
			// beside the fsync; every iteration writes new node records.
			pr.note(editRows(d3, (i*rows)%(n-rows), rows, fmt.Sprint("c", i)))
			i++
			put(d3)
		}
	}
	pr.slow("store.commit_1row_us", us, commitAfter(1))
	pr.slow("store.commit_512row_ms", ms, commitAfter(512))
	want := d3.Hash()
	if err := st.Close(); err != nil {
		return err
	}
	st, err = store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	pr.slow("store.load_table_10k_ms", ms, func() {
		t, err := st.LoadTable("D3")
		pr.note(err)
		if err == nil && t.Hash() != want {
			pr.note(fmt.Errorf("loaded table differs from the committed one"))
		}
	})
	return nil
}

// structuralSync probes the anti-entropy walk over TCP between two
// daemons: a cold (empty) replica of a 10k-row view, and a replica that
// diverges in 16 rows.
func (pr *prober) structuralSync(ctx context.Context, root string) error {
	n := 10000
	if pr.tiny {
		n = 1000
	}
	d, err := deploy(filepath.Join(root, "sync"), []string{"Hub", "Partner"}, "", nil)
	if err != nil {
		return err
	}
	defer d.stop()
	hub, partner := d.daemon("Hub").peer, d.daemon("Partner").peer
	src := workload.GenerateManyShares("T", 1, n, 1)
	hub.DB().PutTable(src)
	partner.DB().PutTable(reldb.MustNewTable(src.Schema()).Renamed("Tcold"))
	div := src.Clone()
	for r := 0; r < 16; r++ {
		key := reldb.Row{reldb.I(int64(r * (n / 16)))}
		if err := div.Update(key, map[string]reldb.Value{workload.ManyShareCol(0): reldb.S("diverged")}); err != nil {
			return err
		}
	}
	partner.DB().PutTable(div.Renamed("Tdiv"))
	cols := []string{"k", workload.ManyShareCol(0)}
	for _, c := range []struct{ share, partnerSource string }{{"cold", "Tcold"}, {"div16", "Tdiv"}} {
		err := hub.RegisterShare(ctx, core.RegisterShareArgs{
			ID: c.share, SourceTable: "T", Lens: bx.Project(c.share+"h", cols, nil), ViewName: c.share + "h",
			Peers: []identity.Address{hub.Address(), partner.Address()},
		})
		if err != nil {
			return err
		}
		if _, err := partner.WaitForShare(ctx, c.share); err != nil {
			return err
		}
		if err := partner.AttachShare(c.share, c.partnerSource, bx.Project(c.share+"p", cols, nil), c.share+"p"); err != nil {
			return err
		}
	}
	var stats core.SyncStats
	sync := func(share string) func() {
		want, err := hub.View(share)
		pr.note(err)
		return func() {
			got, _, s, err := partner.StructuralSync(ctx, hub.Address(), share, 0)
			pr.note(err)
			if err == nil && got.RowsRoot() != want.RowsRoot() {
				pr.note(fmt.Errorf("structural sync of %s assembled the wrong rows", share))
			}
			stats = s
		}
	}
	pr.slow("core.sync_cold_10k_ms", ms, sync("cold"))
	pr.out["core.sync_cold_10k_bytes"] = float64(stats.BytesSent + stats.BytesReceived)
	sync("div16")()
	pr.out["core.sync_div16_rounds"] = float64(stats.Rounds)
	return nil
}
