package api

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"medshare/internal/bx"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/reldb"
)

// writeJSON renders v as the 200 response body.
func writeJSON(w http.ResponseWriter, v any) error {
	return writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) error {
	buf := getBuf()
	defer putBuf(buf)
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return nil // already reported
	}
	buf = append(buf, data...)
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
	return nil
}

// handleHealthz reports liveness: the process is up and the chain store
// answers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, map[string]any{
		"status": "ok",
		"peer":   s.peer.Name(),
		"addr":   s.peer.Address().String(),
		"height": s.node.Store().Height(),
	})
}

// handleReadyz reports readiness: ready iff every bound share's applied
// sequence has caught up with the on-chain sequence AND the sharded
// event runtime's backlog is below the configured bound. A peer that is
// resyncing (restored from a stale snapshot, or digging out of a
// partition) answers 503 so a load balancer routes reads elsewhere
// until the repair loop catches up.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) error {
	type lag struct {
		ShareID    string `json:"shareId"`
		AppliedSeq uint64 `json:"appliedSeq"`
		ChainSeq   uint64 `json:"chainSeq"`
	}
	var lags []lag
	for _, id := range s.peer.Shares() {
		info, err := s.peer.ShareInfo(id)
		if err != nil {
			continue // unbound between Shares() and here
		}
		meta, err := s.peer.Meta(id)
		if err != nil {
			continue // chain metadata gone (share removed)
		}
		if info.AppliedSeq < meta.Seq {
			lags = append(lags, lag{ShareID: id, AppliedSeq: info.AppliedSeq, ChainSeq: meta.Seq})
		}
	}
	backlog := s.peer.Stats().ShardQueueDepth
	poisoned := s.node.Poisoned()
	ready := len(lags) == 0 && backlog <= maxEventBacklog && poisoned == nil
	body := map[string]any{
		"ready":        ready,
		"eventBacklog": backlog,
		"lagging":      lags,
	}
	if poisoned != nil {
		body["poisoned"] = poisoned.Error()
	}
	if ready {
		return writeJSON(w, body)
	}
	s.m.notReady.Add(1)
	return writeJSONStatus(w, http.StatusServiceUnavailable, body)
}

// handleSharesList lists the shares bound on this peer.
func (s *Server) handleSharesList(w http.ResponseWriter, r *http.Request) error {
	ids := s.peer.Shares()
	out := make([]ShareStatus, 0, len(ids))
	for _, id := range ids {
		st, err := s.shareStatus(id)
		if err != nil {
			continue
		}
		out = append(out, st)
	}
	return writeJSON(w, out)
}

func (s *Server) shareStatus(id string) (ShareStatus, error) {
	info, err := s.peer.ShareInfo(id)
	if err != nil {
		return ShareStatus{}, err
	}
	st := ShareStatus{
		ID:          info.ID,
		SourceTable: info.SourceTable,
		ViewName:    info.ViewName,
		AppliedSeq:  info.AppliedSeq,
	}
	if meta, err := s.peer.Meta(id); err == nil {
		st.ChainSeq = meta.Seq
		st.Pending = meta.Pending != nil
		st.Columns = meta.Columns
		st.Peers = addrStrings(meta.Peers)
		st.PayloadHash = meta.LastPayloadHash
	}
	return st, nil
}

// handleShareGet serves one share's lifecycle status.
func (s *Server) handleShareGet(w http.ResponseWriter, r *http.Request) error {
	st, err := s.shareStatus(r.PathValue("id"))
	if err != nil {
		return err
	}
	return writeJSON(w, st)
}

// handleRegister registers a new share with this peer as initiator.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) error {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return badRequest("decoding register request: %v", err)
	}
	if req.ID == "" || req.SourceTable == "" || req.ViewName == "" {
		return badRequest("id, sourceTable and viewName are required")
	}
	lens, err := buildLens(req.LensSpec)
	if err != nil {
		return badRequest("lens spec: %v", err)
	}
	peers, err := parseAddrs(req.Peers)
	if err != nil {
		return badRequest("peers: %v", err)
	}
	args := core.RegisterShareArgs{
		ID:          req.ID,
		SourceTable: req.SourceTable,
		Lens:        lens,
		ViewName:    req.ViewName,
		Peers:       peers,
	}
	if len(req.WritePerm) > 0 {
		args.WritePerm = make(map[string][]identity.Address, len(req.WritePerm))
		for col, writers := range req.WritePerm {
			ws, err := parseAddrs(writers)
			if err != nil {
				return badRequest("writePerm[%s]: %v", col, err)
			}
			args.WritePerm[col] = ws
		}
	}
	if req.Authority != "" {
		a, err := identity.ParseAddress(req.Authority)
		if err != nil {
			return badRequest("authority: %v", err)
		}
		args.Authority = a
	}
	if err := s.peer.RegisterShare(r.Context(), args); err != nil {
		return err
	}
	st, err := s.shareStatus(req.ID)
	if err != nil {
		return err
	}
	return writeJSONStatus(w, http.StatusCreated, st)
}

// handleAttach binds an existing share to this peer's local source.
func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var req AttachRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return badRequest("decoding attach request: %v", err)
	}
	if req.SourceTable == "" || req.ViewName == "" {
		return badRequest("sourceTable and viewName are required")
	}
	lensSpec := req.LensSpec
	if emptySpec(lensSpec) {
		// Default to the lens registered on-chain: the initiator's spec
		// is part of the share metadata precisely so partners can
		// derive their replica without out-of-band agreement.
		meta, err := s.peer.Meta(id)
		if err != nil {
			return err
		}
		lensSpec = meta.LensSpec
	}
	lens, err := buildLens(lensSpec)
	if err != nil {
		return badRequest("lens spec: %v", err)
	}
	if err := s.peer.AttachShare(id, req.SourceTable, lens, req.ViewName); err != nil {
		return err
	}
	st, err := s.shareStatus(id)
	if err != nil {
		return err
	}
	return writeJSONStatus(w, http.StatusCreated, st)
}

// emptySpec treats an absent field and an explicit JSON null alike: a
// nil RawMessage round-trips as the literal `null` through encoders
// that lack omitempty.
func emptySpec(spec json.RawMessage) bool {
	return len(spec) == 0 || string(spec) == "null"
}

func buildLens(spec json.RawMessage) (bx.Lens, error) {
	if emptySpec(spec) {
		return nil, fmt.Errorf("lensSpec is required")
	}
	sp, err := bx.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return sp.Build()
}

// handleRows serves the whole view — the hot read path. The response
// bytes come straight from the root-hash-keyed marshal cache: between
// updates, repeat reads are a map hit plus one Write, no JSON encoding.
func (s *Server) handleRows(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	view, err := s.peer.View(id)
	if err != nil {
		return err
	}
	data, err := s.views.marshaled(id, view)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
	return nil
}

// handleRow serves one row by key (?key=v1,v2 coerced against the key
// schema). With ?proof=1 the response carries a Merkle membership proof
// against the view's row root — the proof cache in core makes repeat
// proven reads of hot rows O(1) between updates.
func (s *Server) handleRow(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	view, err := s.peer.View(id)
	if err != nil {
		return err
	}
	key, err := parseKeyQuery(r.URL.Query().Get("key"), view.Schema())
	if err != nil {
		return badRequest("key: %v", err)
	}
	wantProof := r.URL.Query().Get("proof") == "1"
	if !wantProof {
		row, ok := view.Get(key)
		if !ok {
			return &httpError{status: http.StatusNotFound, err: fmt.Errorf("row not found")}
		}
		info, err := s.peer.ShareInfo(id)
		if err != nil {
			return err
		}
		return writeJSON(w, RowResult{ShareID: id, Seq: info.AppliedSeq, Row: row})
	}
	pr, err := s.peer.ProveView(id, key)
	if err != nil {
		if strings.Contains(err.Error(), "not found") {
			return &httpError{status: http.StatusNotFound, err: err}
		}
		return err
	}
	return writeJSON(w, RowResult{
		ShareID:   id,
		Seq:       pr.Seq,
		Row:       pr.Row,
		Root:      hex.EncodeToString(pr.Root[:]),
		Proof:     &pr.Proof,
		SchemaSum: hex.EncodeToString(pr.SchemaSum[:]),
		Rows:      pr.Rows,
	})
}

// parseKeyQuery parses a comma-separated key tuple, coercing each part
// to its key column's kind. String keys containing commas must use the
// JSON update API; the read key syntax favors curl-ability.
func parseKeyQuery(raw string, sch reldb.Schema) (reldb.Row, error) {
	if raw == "" {
		return nil, fmt.Errorf("missing key parameter")
	}
	parts := strings.Split(raw, ",")
	if len(parts) != len(sch.Key) {
		return nil, fmt.Errorf("key has %d parts, schema keys on %d columns", len(parts), len(sch.Key))
	}
	key := make(reldb.Row, len(parts))
	for i, p := range parts {
		kind, err := keyKind(sch, sch.Key[i])
		if err != nil {
			return nil, err
		}
		v, err := coerceKeyPart(p, kind)
		if err != nil {
			return nil, fmt.Errorf("key column %s: %w", sch.Key[i], err)
		}
		key[i] = v
	}
	return key, nil
}

func coerceKeyPart(s string, k reldb.Kind) (reldb.Value, error) {
	switch k {
	case reldb.KindString:
		return reldb.S(s), nil
	case reldb.KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return reldb.Value{}, err
		}
		return reldb.I(i), nil
	case reldb.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return reldb.Value{}, err
		}
		return reldb.F(f), nil
	case reldb.KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return reldb.Value{}, err
		}
		return reldb.B(b), nil
	case reldb.KindTime:
		t, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			return reldb.Value{}, err
		}
		return reldb.T(t), nil
	default:
		return reldb.Value{}, fmt.Errorf("unsupported key kind %v", k)
	}
}

// handleUpdate applies entry-level view mutations. The request joins
// the write coalescer: concurrent updates landing in the same window
// ride one group commit (one block) via core.UpdateViews.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return badRequest("decoding update request: %v", err)
	}
	if len(req.Ops) == 0 {
		return badRequest("ops must not be empty")
	}
	// Validate the share exists before queueing into a batch.
	if _, err := s.peer.ShareInfo(id); err != nil {
		return err
	}
	prop, proposed, batchSize, err := s.coal.submit(r.Context(), id, func(t *reldb.Table) error {
		return applyOps(t, req.Ops)
	})
	if err != nil {
		if _, bad := errAsBadOp(err); bad {
			return badRequest("%v", err)
		}
		return err
	}
	res := UpdateResult{ShareID: id, Coalesced: batchSize}
	if proposed {
		res.Seq = prop.Seq
		res.TxID = prop.TxID
		res.Cols = prop.Cols
	} else {
		res.NoChange = true
	}
	return writeJSON(w, res)
}

// badOpError marks client-caused mutation failures (malformed ops) so
// they render as 400, not 500.
type badOpError struct{ err error }

func (e *badOpError) Error() string { return e.err.Error() }
func (e *badOpError) Unwrap() error { return e.err }

func errAsBadOp(err error) (*badOpError, bool) {
	var b *badOpError
	ok := errors.As(err, &b)
	return b, ok
}

// applyOps replays the request's mutations onto the view clone.
func applyOps(t *reldb.Table, ops []RowOp) error {
	sch := t.Schema()
	for i, op := range ops {
		switch op.Op {
		case "upsert":
			row, err := coerceRow(op.Row, sch)
			if err != nil {
				return &badOpError{fmt.Errorf("op %d: %w", i, err)}
			}
			if err := t.Upsert(row); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		case "delete":
			key, err := coerceKey(op.Key, sch)
			if err != nil {
				return &badOpError{fmt.Errorf("op %d: %w", i, err)}
			}
			if err := t.Delete(key); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		case "set":
			key, err := coerceKey(op.Key, sch)
			if err != nil {
				return &badOpError{fmt.Errorf("op %d: %w", i, err)}
			}
			set := make(map[string]reldb.Value, len(op.Set))
			for col, raw := range op.Set {
				kind, err := keyKind(sch, col)
				if err != nil {
					return &badOpError{fmt.Errorf("op %d: %w", i, err)}
				}
				v, err := coerceValue(raw, kind)
				if err != nil {
					return &badOpError{fmt.Errorf("op %d, column %s: %w", i, col, err)}
				}
				set[col] = v
			}
			if err := t.Update(key, set); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		default:
			return &badOpError{fmt.Errorf("op %d: unknown op %q", i, op.Op)}
		}
	}
	return nil
}

// handleAudit serves the share's on-chain audit trail.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) error {
	id := r.PathValue("id")
	recs, err := s.auditor.History(id)
	if err != nil {
		return err
	}
	out := make([]AuditRecord, len(recs))
	for i, rec := range recs {
		out[i] = AuditRecord{
			Height:      rec.Height,
			Time:        rec.Time,
			TxID:        rec.TxID,
			From:        rec.From.String(),
			Fn:          rec.Fn,
			ShareID:     rec.ShareID,
			OK:          rec.OK,
			Err:         rec.Err,
			Seq:         rec.Seq,
			Cols:        rec.Cols,
			PayloadHash: rec.PayloadHash,
		}
	}
	return writeJSON(w, out)
}
