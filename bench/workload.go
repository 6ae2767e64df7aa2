package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"medshare/internal/api"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/light"
	"medshare/internal/reldb"
)

// runConfig is one pass of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // sizes the measured phase: operation counts are seconds x a nominal rate
	tiny    bool    // go test smoke sizes
	repeats int     // least number of set-ups and of recoveries to time
	root    string  // scratch directory for data dirs and crash images
	tr      *tracer // nil in the untraced pass
}

// workloadDef names a workload and how to run it.
type workloadDef struct {
	name string
	why  string
	// setup starts the daemons, loads data generated from the seed,
	// registers and attaches the shares, and finalizes one warm update
	// per share.
	setup func(ctx context.Context, cfg runConfig, root string) (*env, error)
	// measure runs the workload's operations and fills the pass's
	// update samples.
	measure func(ctx context.Context, e *env, cfg runConfig, p *pass) error
}

var workloads = []workloadDef{
	{
		name:    "fig1_trickle",
		why:     "one-row updates and Fig. 5 cascades, closed loop: node, consensus, gossip and the core event path do the work; bx, reldb and store touch one row",
		setup:   setupFig1(1000, 64),
		measure: measureTrickle,
	},
	{
		name:    "fig1_bulk",
		why:     "512-row updates on 10,000 records, closed loop: same two blocks per update, but lens, diff, delta fetch, frame encoding and store bytes dominate",
		setup:   setupFig1(10000, 256),
		measure: measureBulk,
	},
	{
		name:    "hub_fanout",
		why:     "one source edit fans out over 32 shares in one group commit per round: batching, fan-out workers, event shards and 32 store commits per side",
		setup:   setupHub("hub_fanout"),
		measure: measureHub,
	},
	{
		name:    "serve_mixed",
		why:     "open loop at 200 req/s over HTTP, 90% proof-carrying and whole-view reads beside 10% coalesced writes that invalidate the read caches",
		setup:   setupHub("serve_mixed"),
		measure: measureServe,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// commitProbe is a permission change that rewrites the writers it found:
// one transaction whose only cost is the commit wait.
type commitProbe struct {
	peer    *core.Peer
	share   string
	column  string
	writers []identity.Address
}

// env is a set-up deployment and what the generic phases need to know
// about it.
type env struct {
	d *deployment
	// binds lists every daemon's side of every share.
	binds []binding

	// Crash-image recovery: which daemon, the tables its role loads at
	// start, and its share bindings.
	recoverWho     string
	recoverInitial []*reldb.Table
	// staleSourceOK: several shares over one source apply concurrently on
	// the recovering daemon, so its recovered source may miss the last
	// applied update (README.md, finding 4). Anywhere else that fails the
	// run.
	staleSourceOK bool

	// readShares are the shares the sealer holds, in read rotation order.
	readShares []string
	// The clients of the sealer's HTTP edge; nil where the workload serves
	// no HTTP.
	client *api.Client
	light  *light.Client

	// Commit-wait probes from a peer beside the sealer and one beside a
	// validator.
	sealerSide, validatorSide commitProbe

	// workload-private state
	priv any
}

func (e *env) sealer() *daemon { return e.d.daemons[0] }

func (e *env) bindings(daemon string) []binding {
	var out []binding
	for _, b := range e.binds {
		if b.daemon == daemon {
			out = append(out, b)
		}
	}
	return out
}

// newClients builds the HTTP and light clients aimed at the sealer's
// edge; the light client subscribes to every share and syncs headers.
func (e *env) newClients(ctx context.Context) error {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}}
	url := e.sealer().url
	e.client = &api.Client{BaseURL: url, HTTPClient: hc}
	lc, err := light.New(light.Config{
		Network: networkName,
		Verify:  e.d.engine().VerifyHeader,
		Source:  &api.LightSource{BaseURL: url, HTTPClient: hc},
	})
	if err != nil {
		return err
	}
	for _, id := range e.readShares {
		lc.Subscribe(id)
	}
	if _, err := lc.SyncHeaders(ctx); err != nil {
		return fmt.Errorf("light header sync: %w", err)
	}
	e.light = lc
	return nil
}

// pass is everything one pass of one workload measured.
type pass struct {
	setupS []float64

	// Update samples, ms. finalMs has one entry per non-cascade update (or
	// per round where updates share a makespan); cascadeMs one per cascade.
	finalMs, cascadeMs []float64
	updates            int // finalized updates
	wall               time.Duration

	// Where the workload serves HTTP: read samples by kind ("rows", "row",
	// "light") and write samples (arrival to the request's commit), ms.
	reads   map[string][]float64
	writeMs []float64

	attempted, failed int
	firstErr          error

	diskBytes int64
	height    uint64

	recoverS     []float64
	recAttach    []float64 // ms: the peer-and-attach part of each recovery
	staleSources int       // recovered source tables that differ from live

	// Open loop only: how late each arrival started, and how long the
	// generator ran.
	lagMs        []float64
	openLoopWall time.Duration

	layer map[string]float64
}

func (p *pass) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

func (p *pass) allReads() []float64 {
	var out []float64
	for _, k := range readKinds {
		out = append(out, p.reads[k]...)
	}
	return out
}

func (p *pass) addRead(kind string, d time.Duration) {
	if p.reads == nil {
		p.reads = make(map[string][]float64)
	}
	p.reads[kind] = append(p.reads[kind], ms(d))
}

// runPass runs one full pass: timed set-ups, the measured phase, the
// traced extras, the output checks and the timed recoveries.
func runPass(ctx context.Context, w workloadDef, cfg runConfig) (*pass, error) {
	p := &pass{layer: make(map[string]float64)}
	var e *env
	for i, more := 0, true; more; i++ {
		root := filepath.Join(cfg.root, fmt.Sprintf("%s-setup%d", w.name, i))
		if err := os.RemoveAll(root); err != nil {
			return nil, err
		}
		begin := time.Now()
		var err error
		if e, err = w.setup(ctx, cfg, root); err != nil {
			os.RemoveAll(root)
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		p.setupS = append(p.setupS, time.Since(begin).Seconds())
		if more = cfg.again(p.setupS); more {
			e.d.stop()
			os.RemoveAll(root)
		}
	}
	defer func() {
		e.d.stop()
		os.RemoveAll(e.d.root)
	}()

	if err := e.d.waitConverged(ctx); err != nil {
		return nil, err
	}
	disk0, height0 := e.d.diskBytes(), e.sealer().node.Store().Height()
	var probe *procProbe
	if cfg.tr != nil {
		probe = startProcProbe(e)
	}
	begin := time.Now()
	if err := w.measure(ctx, e, cfg, p); err != nil {
		return nil, fmt.Errorf("%s measure: %w", w.name, err)
	}
	p.wall = time.Since(begin)
	if err := e.d.waitConverged(ctx); err != nil {
		return nil, err
	}
	p.diskBytes = e.d.diskBytes() - disk0
	p.height = e.sealer().node.Store().Height()
	if probe != nil {
		probe.finish(e, p, height0)
		cfg.tr.resolve(e.d.names())
	}

	if cfg.tr != nil {
		if err := tracedExtras(ctx, e, cfg, p); err != nil {
			return nil, err
		}
		if err := e.d.waitConverged(ctx); err != nil {
			return nil, err
		}
	}
	if err := checkOutputs(e); err != nil {
		return nil, fmt.Errorf("%s output check: %w", w.name, err)
	}
	if err := recoverPhase(e, cfg, p); err != nil {
		return nil, fmt.Errorf("%s recovery: %w", w.name, err)
	}
	return p, nil
}

// again reports whether a set-up or recovery that has been timed
// len(secs) times should be repeated: cfg.repeats times at least, then up
// to fifteen while all of them together took under four seconds. The
// reference box drifts between CPU speeds 25% apart from one second to
// the next; a 0.1 s set-up timed three times in one breath reads one
// speed, fifteen times over two seconds reads the mix. Repeats leave the
// measured state untouched, so their number need not be fixed.
func (cfg runConfig) again(secs []float64) bool {
	total := 0.0
	for _, s := range secs {
		total += s
	}
	return len(secs) < cfg.repeats || (cfg.repeats > 1 && len(secs) < 15 && total < 4)
}

// recoverPhase times restarts of the recovering daemon from fresh copies
// of its quiesced data dir and checks each against the live replica.
func recoverPhase(e *env, cfg runConfig, p *pass) error {
	dm := e.d.daemon(e.recoverWho)
	for i := 0; cfg.again(p.recoverS); i++ {
		image := filepath.Join(e.d.root, fmt.Sprintf("crash-image-%d", i))
		r, err := e.d.recoverImage(dm, image, e.recoverInitial, e.bindings(dm.name))
		if err != nil {
			return err
		}
		stale, err := checkRecovered(e, dm, r)
		r.close()
		os.RemoveAll(image)
		if err == nil && stale > 0 && !e.staleSourceOK {
			err = fmt.Errorf("recovered %s: %d source table(s) differ from live", dm.name, stale)
		}
		if err != nil {
			return err
		}
		p.staleSources = max(p.staleSources, stale)
		p.recoverS = append(p.recoverS, r.total().Seconds())
		p.recAttach = append(p.recAttach, ms(r.attach))
	}
	return nil
}

// readKeys returns up to n current keys of the sealer's replica of the
// share, as reldb rows and as the HTTP key parameter's parts.
func readKeys(e *env, share string, n int) ([]reldb.Row, [][]string, error) {
	view, err := e.sealer().peer.View(share)
	if err != nil {
		return nil, nil, err
	}
	rows := view.RowsCanonical()
	if len(rows) == 0 {
		return nil, nil, fmt.Errorf("share %s view is empty", share)
	}
	step := max(1, len(rows)/n)
	var keys []reldb.Row
	var parts [][]string
	for i := 0; i < len(rows) && len(keys) < n; i += step {
		k := view.KeyValues(rows[i])
		ps := make([]string, len(k))
		for j, v := range k {
			ps[j] = v.String()
		}
		keys = append(keys, k)
		parts = append(parts, ps)
	}
	return keys, parts, nil
}

// reader issues the three read kinds against the sealer's HTTP edge and
// verifies what comes back; a read that fails to verify is a failed op.
type reader struct {
	e     *env
	keys  map[string][]reldb.Row
	parts map[string][][]string
}

func newReader(e *env, perShare int) (*reader, error) {
	r := &reader{e: e, keys: make(map[string][]reldb.Row), parts: make(map[string][][]string)}
	for _, id := range e.readShares {
		k, p, err := readKeys(e, id, perShare)
		if err != nil {
			return nil, err
		}
		r.keys[id], r.parts[id] = k, p
	}
	return r, nil
}

var readKinds = []string{"rows", "row", "light"}

// read performs read number i: the kind rotates fastest, then the share,
// then the key.
func (r *reader) read(ctx context.Context, i int) (kind string, err error) {
	kind = readKinds[i%len(readKinds)]
	i /= len(readKinds)
	share := r.e.readShares[i%len(r.e.readShares)]
	i /= len(r.e.readShares)
	k := i % len(r.keys[share])
	switch kind {
	case "rows":
		var t *reldb.Table
		if t, err = r.e.client.Rows(ctx, share); err == nil && t.Len() == 0 {
			err = fmt.Errorf("rows %s: empty view", share)
		}
	case "row":
		var res api.RowResult
		if res, err = r.e.client.Row(ctx, share, r.parts[share][k], true); err == nil {
			var ok bool
			if ok, err = api.VerifyRow(res); err == nil && !ok {
				err = fmt.Errorf("row %s %v: proof does not verify against root %s", share, r.parts[share][k], res.Root)
			}
		}
	case "light":
		var row reldb.Row
		if row, err = r.e.light.Read(ctx, share, r.keys[share][k]); err == nil && len(row) == 0 {
			err = fmt.Errorf("light %s: empty row", share)
		}
	}
	return kind, err
}

// procProbe samples process-wide gauges during the measured phase of a
// traced pass and takes the counter deltas around it.
type procProbe struct {
	cpu0    time.Duration
	stats0  core.Stats
	store0  uint64
	tr0     traceCounts
	stop    chan struct{}
	wg      sync.WaitGroup
	heapMax uint64
	gorMax  int
	qMax    uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sumStats(e *env) core.Stats {
	var s core.Stats
	for _, dm := range e.d.daemons {
		x := dm.peer.Stats()
		s.RPCAttempts += x.RPCAttempts
		s.RPCRetries += x.RPCRetries
		s.ProposalRetries += x.ProposalRetries
		s.SyncRounds += x.SyncRounds
		s.BatchCommits += x.BatchCommits
		s.BatchTxs += x.BatchTxs
		s.ProofCacheHits += x.ProofCacheHits
		s.ProofCacheMisses += x.ProofCacheMisses
		s.ShardQueueDepth += x.ShardQueueDepth
	}
	return s
}

func sumCommits(e *env) uint64 {
	var n uint64
	for _, dm := range e.d.daemons {
		n += dm.st.Stats().Commits
	}
	return n
}

// traceCounts is a snapshot of the tracer's counters.
type traceCounts struct {
	msgs, requests, gossip, data, other, wire, fsyncs, writes, writeBytes int64
}

func (t *tracer) counts() traceCounts {
	return traceCounts{
		msgs: t.msgs.Load(), requests: t.requests.Load(),
		gossip: t.gossipBytes.Load(), data: t.dataBytes.Load(), other: t.otherBytes.Load(),
		wire: t.wireBytes.Load(), fsyncs: t.fsyncs.Load(), writes: t.writes.Load(),
		writeBytes: t.writeBytes.Load(),
	}
}

func startProcProbe(e *env) *procProbe {
	pp := &procProbe{
		cpu0: cpuTime(), stats0: sumStats(e), store0: sumCommits(e),
		tr0: e.d.tr.counts(), stop: make(chan struct{}),
	}
	pp.wg.Add(1)
	go func() {
		defer pp.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		n := 0
		for {
			select {
			case <-pp.stop:
				return
			case <-tick.C:
			}
			pp.gorMax = max(pp.gorMax, runtime.NumGoroutine())
			pp.qMax = max(pp.qMax, sumStats(e).ShardQueueDepth)
			// ReadMemStats stops the world: sample it ten times less often.
			if n++; n%10 == 0 {
				runtime.ReadMemStats(&m)
				pp.heapMax = max(pp.heapMax, m.HeapInuse)
			}
		}
	}()
	return pp
}

// finish turns the deltas into the per-update layer metrics that come
// from counters rather than spans.
func (pp *procProbe) finish(e *env, p *pass, height0 uint64) {
	close(pp.stop)
	pp.wg.Wait()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	pp.heapMax = max(pp.heapMax, m.HeapInuse)

	n := float64(max(1, p.updates))
	L := p.layer
	L["proc.cpu_s_per_update"] = (cpuTime() - pp.cpu0).Seconds() / n
	L["proc.heap_inuse_peak_mb"] = float64(pp.heapMax) / (1 << 20)
	L["proc.goroutines_peak"] = float64(pp.gorMax)

	s := sumStats(e)
	if dc := s.BatchCommits - pp.stats0.BatchCommits; dc > 0 {
		L["core.batch_txs_per_commit"] = float64(s.BatchTxs-pp.stats0.BatchTxs) / float64(dc)
	}
	L["core.shard_queue_depth_max"] = float64(pp.qMax)
	L["core.rpc_attempts_per_update"] = float64(s.RPCAttempts-pp.stats0.RPCAttempts) / n
	L["core.rpc_retries_per_update"] = float64(s.RPCRetries-pp.stats0.RPCRetries) / n
	L["core.proposal_retries_per_update"] = float64(s.ProposalRetries-pp.stats0.ProposalRetries) / n
	L["core.sync_rounds_per_update"] = float64(s.SyncRounds-pp.stats0.SyncRounds) / n

	blocks := p.height - height0
	L["node.blocks_per_update"] = float64(blocks) / n
	txs := 0
	for h := height0 + 1; h <= p.height; h++ {
		if b, ok := e.sealer().node.Store().AtHeight(h); ok {
			txs += len(b.Txs)
		}
	}
	if blocks > 0 {
		L["node.txs_per_block"] = float64(txs) / float64(blocks)
	}

	c, c0 := e.d.tr.counts(), pp.tr0
	L["p2p.wire_bytes_per_update"] = float64(c.wire-c0.wire) / n
	L["p2p.payload_bytes_per_update"] = float64(c.gossip+c.data+c.other-c0.gossip-c0.data-c0.other) / n
	L["p2p.gossip_bytes_per_update"] = float64(c.gossip-c0.gossip) / n
	L["p2p.data_bytes_per_update"] = float64(c.data-c0.data) / n
	L["p2p.msgs_per_update"] = float64(c.msgs-c0.msgs) / n
	L["p2p.requests_per_update"] = float64(c.requests-c0.requests) / n
	L["store.fsyncs_per_update"] = float64(c.fsyncs-c0.fsyncs) / n
	L["store.writes_per_update"] = float64(c.writes-c0.writes) / n
	L["store.bytes_written_per_update"] = float64(c.writeBytes-c0.writeBytes) / n
	L["store.commits_per_update"] = float64(sumCommits(e)-pp.store0) / n
}
