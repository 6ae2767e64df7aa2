package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/api"
	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

// The hub topology: a Hub daemon (sealer; in serve_mixed also the HTTP
// edge) whose source table "T" is shared column by column — share i is
// Project{k, v_i} — with partner daemons that hold the same table.

const (
	// hubRoundsPerSecond is the nominal round rate on the reference box;
	// see trickleOpsPerSecond.
	hubRoundsPerSecond = 10

	serveRate      = 200 // requests per second, open loop
	serveWriteFrac = 10  // one request in ten writes
)

type hubState struct {
	shares   []string // share i projects column v_i
	rows     int
	hub      *core.Peer
	partners []string // daemon names; share i belongs to partners[i*len/len(shares)]
}

func hubShareID(i int) string { return fmt.Sprintf("S%02d", i) }

func (st *hubState) partnerOf(i int) string {
	return st.partners[i*len(st.partners)/len(st.shares)]
}

func setupHub(kind string) func(context.Context, runConfig, string) (*env, error) {
	return func(ctx context.Context, cfg runConfig, root string) (*env, error) {
		shares, rows, partners, httpOn := 32, 256, []string{"PartnerA", "PartnerB"}, ""
		if kind == "serve_mixed" {
			shares, rows, partners, httpOn = 8, 1000, []string{"Partner"}, "Hub"
		}
		if cfg.tiny {
			shares, rows = shares/4, 64
		}
		d, err := deploy(root, append([]string{"Hub"}, partners...), httpOn, cfg.tr)
		if err != nil {
			return nil, err
		}
		ok := false
		defer func() {
			if !ok {
				d.stop()
			}
		}()
		hub := d.daemon("Hub").peer
		st := &hubState{rows: rows, hub: hub, partners: partners}
		src := workload.GenerateManyShares("T", shares, rows, cfg.seed)
		hub.DB().PutTable(src)
		for _, name := range partners {
			d.daemon(name).peer.DB().PutTable(src.Clone())
		}
		e := &env{d: d, recoverWho: partners[0], recoverInitial: []*reldb.Table{src}, priv: st}
		// hub_fanout applies 16 shares over the partner's one source at once.
		e.staleSourceOK = kind == "hub_fanout"

		for i := 0; i < shares; i++ {
			st.shares = append(st.shares, hubShareID(i))
		}
		for i, id := range st.shares {
			col := workload.ManyShareCol(i)
			partner := d.daemon(st.partnerOf(i)).peer
			hubLens := func() bx.Lens { return bx.Project(id+"h", []string{"k", col}, nil) }
			partnerLens := func() bx.Lens { return bx.Project(id+"p", []string{"k", col}, nil) }
			// Share 0's authority sits with its partner so a validator-side
			// peer has a permission it may rewrite (the commit-wait probe).
			authority := hub.Address()
			if i == 0 {
				authority = partner.Address()
			}
			err := hub.RegisterShare(ctx, core.RegisterShareArgs{
				ID: id, SourceTable: "T", Lens: hubLens(), ViewName: id + "h",
				Peers:     []identity.Address{hub.Address(), partner.Address()},
				WritePerm: map[string][]identity.Address{col: {hub.Address()}},
				Authority: authority,
			})
			if err != nil {
				return nil, err
			}
			e.binds = append(e.binds,
				binding{share: id, daemon: "Hub", source: "T", view: id + "h", lens: hubLens},
				binding{share: id, daemon: st.partnerOf(i), source: "T", view: id + "p", lens: partnerLens})
		}
		e.readShares = st.shares
		for i, id := range st.shares {
			partner := d.daemon(st.partnerOf(i)).peer
			if _, err := partner.WaitForShare(ctx, id); err != nil {
				return nil, err
			}
			b := e.binds[2*i+1] // the partner's side, appended above
			if err := partner.AttachShare(id, b.source, b.lens(), b.view); err != nil {
				return nil, err
			}
		}
		writers := []identity.Address{hub.Address()}
		e.validatorSide = commitProbe{peer: d.daemon(st.partnerOf(0)).peer, share: st.shares[0], column: workload.ManyShareCol(0), writers: writers}
		e.sealerSide = commitProbe{peer: hub, share: st.shares[1], column: workload.ManyShareCol(1), writers: writers}

		// Warm: one round on the last row finalizes an update on every share.
		if err := hubRound(ctx, st, rows-1, "warm"); err != nil {
			return nil, err
		}
		if httpOn != "" {
			if err := e.newClients(ctx); err != nil {
				return nil, err
			}
		}
		ok = true
		return e, nil
	}
}

// hubRound edits every shared column of one source row, proposes all
// shares as one group commit, and waits for every share's finality.
func hubRound(ctx context.Context, st *hubState, row int, val string) error {
	err := st.hub.UpdateSource("T", func(t *reldb.Table) error {
		set := make(map[string]reldb.Value, len(st.shares))
		for i := range st.shares {
			set[workload.ManyShareCol(i)] = reldb.S(fmt.Sprintf("%s-c%d", val, i))
		}
		return t.Update(reldb.Row{reldb.I(int64(row))}, set)
	})
	if err != nil {
		return err
	}
	props, err := st.hub.SyncShares(ctx, "T")
	if err != nil {
		return err
	}
	if len(props) != len(st.shares) {
		return fmt.Errorf("round proposed %d of %d shares", len(props), len(st.shares))
	}
	for _, pr := range props {
		if err := st.hub.WaitFinal(ctx, pr.ShareID, pr.Seq); err != nil {
			return err
		}
	}
	return nil
}

// measureHub runs closed-loop rounds; every update of a round inherits
// the round's makespan, so one sample per round carries the percentiles.
func measureHub(ctx context.Context, e *env, cfg runConfig, p *pass) error {
	st := e.priv.(*hubState)
	rounds := int(cfg.seconds * hubRoundsPerSecond)
	if cfg.tiny {
		rounds = 5
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for r := 0; r < rounds; r++ {
		row := rng.Intn(st.rows - 1) // the last row is the warm row
		p.attempted += len(st.shares)
		var seq0 uint64
		if cfg.tr != nil {
			info, err := st.hub.ShareInfo(st.shares[0])
			if err != nil {
				return err
			}
			seq0 = info.AppliedSeq
		}
		t0 := time.Now()
		err := hubRound(ctx, st, row, fmt.Sprintf("s%d-r%d", cfg.seed, r))
		t5 := time.Now()
		if err != nil {
			p.failed += len(st.shares)
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("round %d: %w", r, err)
			}
			continue
		}
		p.updates += len(st.shares)
		p.finalMs = append(p.finalMs, ms(t5.Sub(t0)))
		if cfg.tr != nil {
			// Every share advances one seq per round, in step.
			for i, id := range st.shares {
				cfg.tr.record(tracedOp{share: id, seq: seq0 + 1, origin: "Hub", peer: st.partnerOf(i), t0: t0, t5: t5})
			}
		}
	}
	return nil
}

// openLoop issues n arrivals on a fixed schedule — arrival i is due at
// start + i*period, whatever happened to the arrivals before it — and
// runs each on one of `workers` goroutines. The queue holds every arrival,
// so the scheduler never waits for a worker; when it wakes late it hands
// over everything that fell due meanwhile, each with its own due time.
//
// internal/loadgen is not used here: its scheduler re-bases the schedule
// on the current time whenever it wakes more than one period late, so one
// 40 ms stall made every later arrival 40 ms "on time" by its own
// clock; measured against the true schedule, whole runs shifted by
// 15-70 ms and read_p50_ms read anywhere from 2 to 70 ms.
func openLoop(ctx context.Context, n int, period time.Duration, workers int, op func(seq int, due time.Time)) (elapsed time.Duration) {
	start := time.Now()
	queue := make(chan int, n) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range queue {
				op(seq, start.Add(time.Duration(seq)*period))
			}
		}()
	}
schedule:
	for seq := 0; seq < n; seq++ {
		if d := time.Until(start.Add(time.Duration(seq) * period)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				break schedule
			}
		}
		queue <- seq
	}
	close(queue)
	wg.Wait()
	return time.Since(start)
}

// serveWorkers is the number of requests that may be in flight: enough
// that a request waiting on a block never holds back the arrivals behind
// it (they are goroutines parked on sockets; the CPU-side concurrency is
// still GOMAXPROCS).
const serveWorkers = 32

// measureServe drives the HTTP edge open loop: arrivals every 1/200 s
// for cfg.seconds, latency counted from each arrival's scheduled time.
// Nine in ten arrivals read (whole view, proof-carrying row, light-client
// row, rotating); one in ten writes one cell through the coalescer, and
// a waiter follows each write to finality.
func measureServe(ctx context.Context, e *env, cfg runConfig, p *pass) error {
	st := e.priv.(*hubState)
	seconds, rate := cfg.seconds, float64(serveRate)
	if cfg.tiny {
		seconds, rate = 1, 60
	}
	rd, err := newReader(e, st.rows)
	if err != nil {
		return err
	}
	// Which arrivals write is fixed by the seed: exactly one per block of
	// serveWriteFrac arrivals, at a seeded offset.
	total := int(seconds * rate)
	isWrite := make([]bool, total)
	rng := rand.New(rand.NewSource(cfg.seed))
	for b := 0; b+serveWriteFrac <= total; b += serveWriteFrac {
		isWrite[b+rng.Intn(serveWriteFrac)] = true
	}

	var (
		mu       sync.Mutex
		writeIdx atomic.Int64
		readIdx  atomic.Int64
		waiters  sync.WaitGroup
	)
	b0, w0 := e.sealer().api.CoalesceStats()
	op := func(seq int, due time.Time) {
		lag := time.Since(due)
		if !isWrite[seq] {
			kind, err := rd.read(ctx, int(readIdx.Add(1)-1))
			d := time.Since(due)
			mu.Lock()
			defer mu.Unlock()
			p.attempted++
			p.lagMs = append(p.lagMs, ms(lag))
			if err != nil {
				p.fail(err)
			} else {
				p.addRead(kind, d)
			}
			return
		}
		// Writes round-robin over the shares so two writes never meet in
		// one share's pending window.
		w := int(writeIdx.Add(1) - 1)
		share := w % len(st.shares)
		row := (w * 7) % (st.rows - 1)
		res, err := e.client.Update(ctx, st.shares[share], []api.RowOp{{
			Op: "set", Key: []any{float64(row)},
			Set: map[string]any{workload.ManyShareCol(share): fmt.Sprintf("s%d-w%d", cfg.seed, w)},
		}})
		t1 := time.Now()
		if err == nil && res.NoChange {
			err = fmt.Errorf("write %d changed nothing", w)
		}
		mu.Lock()
		p.attempted++
		p.lagMs = append(p.lagMs, ms(lag))
		if err != nil {
			p.fail(err)
		} else {
			p.writeMs = append(p.writeMs, ms(t1.Sub(due)))
		}
		mu.Unlock()
		if err != nil {
			return
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			err := st.hub.WaitFinal(ctx, res.ShareID, res.Seq)
			t5 := time.Now()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				p.fail(err)
				return
			}
			p.updates++
			p.finalMs = append(p.finalMs, ms(t5.Sub(due)))
			if cfg.tr != nil {
				cfg.tr.record(tracedOp{share: res.ShareID, seq: res.Seq, origin: "Hub", peer: st.partnerOf(share), t0: due, t5: t5})
			}
		}()
	}
	p.openLoopWall = openLoop(ctx, total, time.Duration(float64(time.Second)/rate), serveWorkers, op)
	waiters.Wait()
	b1, w1 := e.sealer().api.CoalesceStats()
	if b1 > b0 {
		p.layer["api.coalesced_writes_per_batch"] = float64(w1-w0) / float64(b1-b0)
	}
	return nil
}
