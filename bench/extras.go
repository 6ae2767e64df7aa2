package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"medshare/internal/api"
	"medshare/internal/contract/sharereg"
	"medshare/internal/light"
	"medshare/internal/reldb"
)

// tracedExtras runs, on the still-live deployment of a traced pass, the
// measurements that need real daemons but are not part of the workload:
// commit waits from either side of the sealer, follower lag, the sealer
// peer's proof calls, the store's space amplification and, where the
// workload serves HTTP, the light client's cold and cached reads. It then
// folds the spans into medians.
func tracedExtras(ctx context.Context, e *env, cfg runConfig, p *pass) error {
	L, tr := p.layer, cfg.tr

	// One SetPermission transaction from a peer whose node seals, and one
	// from a peer whose node only gossips it to the sealer.
	iters := 15
	if cfg.tiny {
		iters = 3
	}
	var sealerMs, validatorMs []float64
	for i := 0; i < iters; i++ {
		for _, side := range []struct {
			cp  commitProbe
			out *[]float64
		}{{e.sealerSide, &sealerMs}, {e.validatorSide, &validatorMs}} {
			t := time.Now()
			if err := side.cp.peer.SetPermission(ctx, side.cp.share, side.cp.column, side.cp.writers); err != nil {
				return fmt.Errorf("commit-wait probe on %s: %w", side.cp.share, err)
			}
			*side.out = append(*side.out, ms(time.Since(t)))
		}
	}
	L["node.commit_wait_sealer_ms"] = median(sealerMs)
	L["node.commit_wait_validator_ms"] = median(validatorMs)

	// The same committed event, seen by the sealer's subscribers and by
	// each validator's.
	var lag []float64
	sealer := e.sealer().name
	tr.mu.Lock()
	for k, at := range tr.stamps {
		if k.where == sealer || k.what != sharereg.EvUpdateRequested || strings.Contains(k.id, "/") {
			continue
		}
		if base, ok := tr.stamps[stampKey{sealer, k.what, k.id}]; ok {
			lag = append(lag, ms(at.Sub(base)))
		}
	}
	tr.mu.Unlock()
	L["node.follower_lag_ms"] = median(lag)

	// The sealer peer's proof calls.
	peer := e.sealer().peer
	share := e.readShares[0]
	keys, _, err := readKeys(e, share, 256)
	if err != nil {
		return err
	}
	var perr error // first error inside a timed closure
	note := func(err error) {
		if err != nil && perr == nil {
			perr = err
		}
	}
	i := 0
	L["core.prove_view_us"] = us(timeMedian(len(keys), len(keys), time.Second, func() {
		_, err := peer.ProveView(share, keys[i%len(keys)])
		note(err)
		i++
	}))
	L["core.light_head_us"] = us(timeMedian(50, 200, 300*time.Millisecond, func() {
		_, err := peer.LightHead(share)
		note(err)
	}))
	st := peer.Stats()
	if n := st.ProofCacheHits + st.ProofCacheMisses; n > 0 {
		L["core.proof_cache_hit_ratio"] = float64(st.ProofCacheHits) / float64(n)
	}
	if perr != nil {
		return fmt.Errorf("live probe: %w", perr)
	}
	if e.client != nil {
		if err := httpExtras(ctx, e, p, share, keys); err != nil {
			return err
		}
	}

	// Log bytes on disk over the canonical encoding of what is live: every
	// daemon's tables plus one copy of the chain per daemon.
	var chainBytes int64
	for _, b := range e.sealer().node.Store().MainChain() {
		raw, err := json.Marshal(b)
		if err != nil {
			return err
		}
		chainBytes += int64(len(raw))
	}
	live := chainBytes * int64(len(e.d.daemons))
	for _, dm := range e.d.daemons {
		db := dm.peer.DB()
		for _, name := range db.TableNames() {
			t, err := db.Table(name)
			if err != nil {
				return err
			}
			raw, err := reldb.MarshalTable(t)
			if err != nil {
				return err
			}
			live += int64(len(raw))
		}
	}
	if live > 0 {
		L["store.space_amp"] = float64(e.d.diskBytes()) / float64(live)
	}

	foldSpans(tr, p)
	return nil
}

// httpExtras measures the HTTP edge beside the workload: what the
// workload's own light client moved and holds, a fresh light client's
// first reads of distinct keys under a proven head and the same keys
// again, and the size of one whole-view response.
func httpExtras(ctx context.Context, e *env, p *pass, share string, keys []reldb.Row) error {
	L := p.layer
	if n := len(p.reads["light"]); n > 0 {
		L["light.wire_bytes_per_read"] = float64(e.light.Stats().WireBytes) / float64(n)
	}
	L["light.state_bytes"] = float64(e.light.StateBytes())

	lc, err := light.New(light.Config{
		Network: networkName, Verify: e.d.engine().VerifyHeader,
		Source: &api.LightSource{BaseURL: e.sealer().url, HTTPClient: e.client.HTTPClient},
	})
	if err != nil {
		return err
	}
	lc.Subscribe(share)
	if _, err := lc.SyncHeaders(ctx); err != nil {
		return err
	}
	if _, err := lc.Read(ctx, share, keys[0]); err != nil {
		return fmt.Errorf("light probe: %w", err)
	}
	var rerr error // first error inside a timed read
	lightRead := func() func() {
		i := 1
		return func() {
			if _, err := lc.Read(ctx, share, keys[i%len(keys)]); err != nil && rerr == nil {
				rerr = err
			}
			i++
		}
	}
	n := len(keys) - 1
	L["light.read_cold_us"] = us(timeMedian(n, n, time.Second, lightRead()))
	L["light.read_cached_us"] = us(timeMedian(n, n, time.Second, lightRead()))
	if rerr != nil {
		return fmt.Errorf("light probe: %w", rerr)
	}

	resp, err := e.client.HTTPClient.Get(e.sealer().url + "/v1/shares/" + url.PathEscape(share) + "/rows")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rows probe: status %d, %v", resp.StatusCode, err)
	}
	L["api.rows_response_bytes"] = float64(len(body))
	return nil
}

// foldSpans turns the spans into the span-derived layer metrics.
func foldSpans(tr *tracer, p *pass) {
	L := p.layer
	for metric, name := range map[string]string{
		"core.propose_ms":     "core.propose",
		"core.notify_gap_ms":  "core.notify_gap",
		"core.apply_ack_ms":   "core.apply_ack",
		"core.final_wait_ms":  "core.final_wait",
		"core.cascade_hop_ms": "core.cascade_hop",
	} {
		L[metric] = median(tr.spanDurations(name))
	}
	L["p2p.fetch_rtt_p50_ms"] = median(tr.fetchRTT.snapshot())
	L["store.fsync_p50_ms"] = median(tr.fsyncDur.snapshot())
	self, total := tr.selfTime("update")
	var s, t float64
	for i := range self {
		s += self[i]
		t += total[i]
	}
	if t > 0 {
		L["trace.unattributed_ratio"] = s / t
	}
}
