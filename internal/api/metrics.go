package api

import (
	"maps"
	"net/http"
	"slices"
	"strconv"
)

// handleMetrics renders the Prometheus text exposition format by hand —
// the repo deliberately has no dependency on a metrics library, and the
// format is three line shapes. Exported families:
//
//   - medshare_api_requests_total{kind=...} / _errors_total — HTTP
//     traffic split by request kind
//   - medshare_api_latency_seconds{kind=...,quantile=...} — per-kind
//     latency summaries from HDR-style histograms (hist.go)
//   - medshare_api_view_cache_* — marshal-cache effectiveness on the
//     hot read path
//   - medshare_peer_* — the peer's own serve/resilience counters
//     (Peer.Stats), including data.sync requests served
//     (medshare_peer_syncs_served_total), proof-cache hits/misses and
//     the group commit batch realization
//   - medshare_chain_* — chain height and mempool gauges
//   - medshare_node_tx_sig_checks_total — transaction signatures the
//     node verified: one per signature group it committed (a
//     transaction signed alone, or a whole batch signed once), when
//     every group reached it by submission or gossip first
//   - medshare_store_* — the durable store's size and recovery gauges,
//     and medshare_store_bytes_written_total{kind=...} /
//     _records_written_total{kind=...}: what the store appended since
//     it opened, per record kind
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	buf := getBuf()
	defer putBuf(buf)

	buf = append(buf, "# TYPE medshare_api_requests_total counter\n"...)
	for _, k := range requestKinds {
		buf = promLine(buf, "medshare_api_requests_total", `kind="`+k+`"`, float64(s.m.kinds[k].requests.Load()))
	}
	buf = append(buf, "# TYPE medshare_api_errors_total counter\n"...)
	for _, k := range requestKinds {
		buf = promLine(buf, "medshare_api_errors_total", `kind="`+k+`"`, float64(s.m.kinds[k].errors.Load()))
	}
	buf = append(buf, "# TYPE medshare_api_latency_seconds summary\n"...)
	for _, k := range requestKinds {
		h := &s.m.kinds[k].latency
		if h.Count() == 0 {
			continue
		}
		for _, q := range [...]struct {
			label string
			q     float64
		}{{"0.5", 0.5}, {"0.99", 0.99}, {"0.999", 0.999}} {
			buf = promLine(buf, "medshare_api_latency_seconds",
				`kind="`+k+`",quantile="`+q.label+`"`, h.Quantile(q.q).Seconds())
		}
		buf = promLine(buf, "medshare_api_latency_seconds_sum", `kind="`+k+`"`, h.Sum().Seconds())
		buf = promLine(buf, "medshare_api_latency_seconds_count", `kind="`+k+`"`, float64(h.Count()))
	}

	buf = append(buf, "# TYPE medshare_api_view_cache_hits_total counter\n"...)
	buf = promLine(buf, "medshare_api_view_cache_hits_total", "", float64(s.views.hits.Load()))
	buf = append(buf, "# TYPE medshare_api_view_cache_misses_total counter\n"...)
	buf = promLine(buf, "medshare_api_view_cache_misses_total", "", float64(s.views.misses.Load()))
	buf = append(buf, "# TYPE medshare_api_not_ready_total counter\n"...)
	buf = promLine(buf, "medshare_api_not_ready_total", "", float64(s.m.notReady.Load()))

	st := s.peer.Stats()
	peerCounters := [...]struct {
		name string
		v    uint64
	}{
		{"medshare_peer_rpc_attempts_total", st.RPCAttempts},
		{"medshare_peer_rpc_failures_total", st.RPCFailures},
		{"medshare_peer_rpc_retries_total", st.RPCRetries},
		{"medshare_peer_dead_short_circuits_total", st.DeadShortCircuits},
		{"medshare_peer_resyncs_triggered_total", st.ResyncsTriggered},
		{"medshare_peer_repair_heals_total", st.RepairHeals},
		{"medshare_peer_proposal_retries_total", st.ProposalRetries},
		{"medshare_peer_sync_rounds_total", st.SyncRounds},
		{"medshare_peer_sync_requests_total", st.SyncRequests},
		{"medshare_peer_batch_commits_total", st.BatchCommits},
		{"medshare_peer_batch_txs_total", st.BatchTxs},
		{"medshare_peer_delta_gets_total", st.DeltaGets},
		{"medshare_peer_full_gets_total", st.FullGets},
		{"medshare_peer_syncs_served_total", st.SyncsServed},
		{"medshare_peer_proof_cache_hits_total", st.ProofCacheHits},
		{"medshare_peer_proof_cache_misses_total", st.ProofCacheMisses},
	}
	for _, c := range peerCounters {
		buf = append(buf, "# TYPE "...)
		buf = append(buf, c.name...)
		buf = append(buf, " counter\n"...)
		buf = promLine(buf, c.name, "", float64(c.v))
	}
	buf = append(buf, "# TYPE medshare_peer_event_backlog gauge\n"...)
	buf = promLine(buf, "medshare_peer_event_backlog", "", float64(st.ShardQueueDepth))
	buf = append(buf, "# TYPE medshare_chain_height gauge\n"...)
	buf = promLine(buf, "medshare_chain_height", "", float64(s.node.Store().Height()))
	buf = append(buf, "# TYPE medshare_chain_pending_txs gauge\n"...)
	buf = promLine(buf, "medshare_chain_pending_txs", "", float64(s.node.PendingTxs()))
	buf = append(buf, "# TYPE medshare_node_tx_sig_checks_total counter\n"...)
	buf = promLine(buf, "medshare_node_tx_sig_checks_total", "", float64(s.node.TxSigChecks()))

	// Durable-store gauges, present only when the peer runs one: size and
	// segmentation of the log, plus the recovery telemetry (torn tail,
	// degraded segments) an operator alerts on.
	if s.cfg.Store != nil {
		ds := s.cfg.Store.Stats()
		bool01 := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		storeGauges := [...]struct {
			name string
			v    float64
		}{
			{"medshare_store_segments", float64(ds.Segments)},
			{"medshare_store_total_bytes", float64(ds.TotalBytes)},
			{"medshare_store_live_bytes", float64(ds.TotalBytes - ds.TailBytes)},
			{"medshare_store_tail_bytes", float64(ds.TailBytes)},
			{"medshare_store_torn_tail", bool01(ds.TornTail)},
			{"medshare_store_degraded_segments", float64(ds.DegradedSegments)},
			{"medshare_store_commits", float64(ds.Commits)},
		}
		for _, g := range storeGauges {
			buf = append(buf, "# TYPE "...)
			buf = append(buf, g.name...)
			buf = append(buf, " gauge\n"...)
			buf = promLine(buf, g.name, "", g.v)
		}
		kinds := slices.Sorted(maps.Keys(ds.Written))
		buf = append(buf, "# TYPE medshare_store_bytes_written_total counter\n"...)
		for _, k := range kinds {
			buf = promLine(buf, "medshare_store_bytes_written_total", `kind="`+k+`"`, float64(ds.Written[k].Bytes))
		}
		buf = append(buf, "# TYPE medshare_store_records_written_total counter\n"...)
		for _, k := range kinds {
			buf = promLine(buf, "medshare_store_records_written_total", `kind="`+k+`"`, float64(ds.Written[k].Records))
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(buf)
	return nil
}

// promLine appends `name{labels} value\n`.
func promLine(buf []byte, name, labels string, v float64) []byte {
	buf = append(buf, name...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	buf = append(buf, '\n')
	return buf
}
