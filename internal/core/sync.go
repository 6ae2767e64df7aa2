package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"medshare/internal/identity"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
)

// Structural anti-entropy: a replica that missed several updates (or
// holds nothing at all) converges by walking the updater's canonical
// Merkle row tree top-down. Each round the requester names the subtree
// roots it cannot match locally — as node requests for large subtrees
// (answered with the node's row and child summaries: key, raw 32-byte
// digest, size) and as row requests for small ones (answered with the
// subtree's rows wholesale). Because the row tree's shape is a pure
// function of the key set (and the share's priority seed), a digest
// match proves the requester already holds an identical subtree and can
// graft its own copy — so a d-row divergence on an n-row view transfers
// O(d log n) summaries plus the divergent rows, instead of the whole
// view, and nothing the requester already holds crosses the wire (the
// provider ships rows only on explicit request, never speculatively).
// Requests and responses travel in compact binary frames (raw digests
// and storage keys, varint sizes) instead of base64-inflated JSON. The
// reconstructed table is verified against the on-chain payload hash
// exactly like a full fetch, so a corrupt or malicious sync stream
// cannot install bad data.
//
// Two request-side mechanisms attack the walk's latency floor (one
// round-trip per divergent tree level):
//
//   - span expansion: a request carries a Span, and the provider
//     answers each wanted subtree root with the node AND its divergence-
//     eligible descendants down span extra levels (BFS, never descending
//     into subtrees small enough for inline row fetch). The requester
//     grafts whatever it turns out to already hold, so speculation costs
//     bounded summary bytes — one matched sibling per lone divergent
//     path level — while each exchange advances span+1 levels instead of
//     one, dividing the round count.
//   - pipelined waves: each wave's frontier is split into chunks fetched
//     concurrently (bounded by SyncOptions.Parallel, fanoutWorkers on
//     the peer path), so a wave costs one RTT regardless of frontier
//     width, and independent divergent subtrees
//     proceed without queueing behind each other on the wire.
//
// SyncStats.Rounds counts sequential waves (the RTT critical path);
// SyncStats.Requests counts request messages (≥ Rounds when a wave was
// chunked).

// syncInlineRows is the subtree size at or below which the requester
// asks for rows wholesale instead of descending node by node.
const syncInlineRows = 16

// syncBaseRounds bounds the top-down walk before the provider's tree
// size is known; after the first round the bound grows with the
// provider-reported size (the walk needs at most one round per tree
// level, and a random treap's max depth is ~3·log2 n), so structural
// sync never silently hits the cliff on very large views while a
// malicious provider still cannot keep a requester walking forever.
const syncBaseRounds = 64

// syncDefaultSpan is the speculative expansion depth the peer sync path
// requests: each exchange advances two tree levels for at most one
// wasted sibling summary per lone divergent path level. Deeper spans
// trade more speculative bytes for fewer rounds (see SyncOptions).
const syncDefaultSpan = 1

// syncMaxSpan caps the span a provider honors (and a decoder accepts),
// bounding the response amplification any single request can demand to
// 2^(span+1)-1 nodes per wanted key.
const syncMaxSpan = 4

// syncDefaultParallel bounds concurrent wave-chunk requests when the
// caller didn't wire a worker budget.
const syncDefaultParallel = 4

// syncMinChunk is the smallest frontier slice worth a dedicated
// request: waves narrower than parallel·syncMinChunk use fewer chunks,
// so concurrency never inflates the message count of shallow walks.
const syncMinChunk = 4

// ErrSyncAborted marks a structural sync that could not complete (the
// provider's view changed mid-walk, the round bound was hit, or the
// stream was malformed); callers fall back to a full fetch.
var ErrSyncAborted = errors.New("core: structural sync aborted")

// SyncRequest asks a counterparty for row-tree nodes and small-subtree
// rows of a share's current view. Authentication mirrors FetchRequest:
// the request is signed and only sharing peers are served. It travels
// as a binary frame (see syncwire.go), not JSON.
type SyncRequest struct {
	ShareID string
	// MinSeq is the lowest acceptable version.
	MinSeq uint64
	// Span asks the provider to expand each wanted subtree root this
	// many extra levels per response (capped at syncMaxSpan).
	Span int
	// Keys are the storage-key encodings of the wanted subtree roots;
	// both lists empty means the tree root (the first round).
	Keys [][]byte
	// RowKeys are subtree roots whose rows the requester wants shipped
	// wholesale (divergent subtrees of ≤ syncInlineRows rows).
	RowKeys   [][]byte
	Requester identity.Address
	PubKey    []byte
	TsMicro   int64
	Sig       []byte
}

// signingBytes is the canonical byte string covered by Sig. The wanted
// keys (node and row requests, domain-separated) are committed through
// a digest so rounds cannot be replayed with altered walk targets; the
// span is covered so a relay cannot inflate (or collapse) the response
// amplification of a captured request.
func (r *SyncRequest) signingBytes() []byte {
	h := sha256.New()
	for _, k := range r.Keys {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write(k)
	}
	h.Write([]byte{0xff})
	for _, k := range r.RowKeys {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write(k)
	}
	out := make([]byte, 0, len(r.ShareID)+len(r.Requester)+64)
	out = append(out, "medshare-sync:"...)
	out = append(out, r.ShareID...)
	out = binary.BigEndian.AppendUint64(out, r.MinSeq)
	out = binary.BigEndian.AppendUint64(out, uint64(r.Span))
	out = h.Sum(out)
	out = append(out, r.Requester[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(r.TsMicro))
	return out
}

// SyncChild summarizes one child subtree of a served node: storage key
// of its root, raw subtree digest, entry count. The requester compares
// the digest against its own content and descends (or requests rows)
// only where they differ.
type SyncChild struct {
	Key    []byte
	Digest []byte
	Size   int
}

// SyncNode is one served row-tree node: its row plus child summaries.
type SyncNode struct {
	Key   []byte
	Row   reldb.Row
	Left  *SyncChild
	Right *SyncChild
}

// SyncSubtree carries the rows of one explicitly requested small
// subtree, in ascending key order.
type SyncSubtree struct {
	Key  []byte
	Rows []reldb.Row
}

// SyncResponse answers one round of the walk. It travels as a binary
// frame (see syncwire.go), not JSON.
type SyncResponse struct {
	ShareID string
	// Seq is the version of the served view.
	Seq uint64
	// Root is the row-tree root of the snapshot this round was served
	// from. It is the walk's consistency anchor: the root is canonical,
	// so equal roots across rounds prove every served node belongs to
	// identical view contents even if the provider applied updates (or
	// its seq label raced its view install) mid-walk.
	Root  []byte
	Nodes []SyncNode
	// Subtrees answer the round's RowKeys requests.
	Subtrees []SyncSubtree
	// Empty marks a view with no rows (the walk ends immediately).
	Empty bool
}

// SyncStats reports what one structural sync transferred — the
// benchmark and test substrate for the "divergent subtrees only" claim.
type SyncStats struct {
	// Rounds is the number of sequential request waves — the walk's
	// round-trip critical path. A wave split into concurrent chunk
	// requests still counts once.
	Rounds int
	// Requests is the total number of request messages sent (≥ Rounds
	// when waves were chunked across concurrent requests).
	Requests int
	// NodesFetched counts served tree nodes (divergent-path interiors).
	NodesFetched int
	// RowsInline counts rows shipped as requested subtree batches —
	// every one belongs to a subtree the requester could not match.
	RowsInline int
	// RowsGrafted counts rows the requester reused from its own replica
	// after a digest match — rows that did NOT cross the wire.
	RowsGrafted int
	// BytesSent and BytesReceived measure the marshaled request and
	// response payloads.
	BytesSent     int
	BytesReceived int
}

// syncNodesFor serves one round's node requests against a view
// snapshot; initial selects the tree root. Unknown keys are skipped —
// the requester's final payload-hash check arbitrates. A positive span
// additionally expands each wanted root BFS down span extra levels
// (parents before children, within-response dedup), never descending
// into subtrees small enough for inline row fetch — those the requester
// either grafts or asks for wholesale, so their interiors never earn
// their bytes.
func syncNodesFor(view *reldb.Table, keys [][]byte, initial bool, span int) []SyncNode {
	if initial {
		keys = [][]byte{nil}
	}
	if span < 0 {
		span = 0
	}
	if span > syncMaxSpan {
		span = syncMaxSpan
	}
	type item struct {
		key   []byte
		depth int
	}
	queue := make([]item, 0, len(keys))
	for _, k := range keys {
		queue = append(queue, item{key: k})
	}
	var seen map[string]bool
	if span > 0 {
		seen = make(map[string]bool, len(keys))
	}
	out := make([]SyncNode, 0, len(keys))
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		n, ok := view.MerkleNodeAt(it.key)
		if !ok {
			continue
		}
		if seen != nil {
			if seen[string(n.Key)] {
				continue
			}
			seen[string(n.Key)] = true
		}
		out = append(out, SyncNode{
			Key:   n.Key,
			Row:   n.Row,
			Left:  wireChild(n.Left),
			Right: wireChild(n.Right),
		})
		if it.depth >= span {
			continue
		}
		for _, c := range []*reldb.MerkleChild{n.Left, n.Right} {
			if c != nil && c.Size > syncInlineRows {
				queue = append(queue, item{key: c.Key, depth: it.depth + 1})
			}
		}
	}
	return out
}

func wireChild(c *reldb.MerkleChild) *SyncChild {
	if c == nil {
		return nil
	}
	return &SyncChild{Key: c.Key, Digest: c.Digest[:], Size: c.Size}
}

// syncSubtreesFor serves one round's row requests. Oversized requests
// (beyond the protocol's inline bound — a well-behaved requester never
// sends them) and unknown keys are skipped.
func syncSubtreesFor(view *reldb.Table, rowKeys [][]byte) []SyncSubtree {
	out := make([]SyncSubtree, 0, len(rowKeys))
	for _, k := range rowKeys {
		rows, ok := view.SubtreeRows(k)
		if !ok || len(rows) > syncInlineRows {
			continue
		}
		out = append(out, SyncSubtree{Key: k, Rows: rows})
	}
	return out
}

// serveSync is the provider side of the anti-entropy RPC.
func (p *Peer) serveSync(msg p2p.Message) (p2p.Message, error) {
	req, err := decodeSyncRequest(msg.Payload)
	if err != nil {
		return p2p.Message{}, fmt.Errorf("core: bad sync request: %w", err)
	}
	s, seq, err := p.authorizeShareRequest(req.ShareID, req.Requester, req.PubKey, req.signingBytes(), req.Sig, req.MinSeq)
	if err != nil {
		return p2p.Message{}, err
	}
	view, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return p2p.Message{}, err
	}
	// Seq and the view snapshot are read without a common lock, so the
	// label can race an install; the per-round Root (computed from THIS
	// snapshot) is what the requester anchors consistency on.
	root := view.RowsRoot()
	resp := SyncResponse{ShareID: req.ShareID, Seq: seq, Root: root[:], Empty: view.Len() == 0}
	if !resp.Empty {
		resp.Nodes = syncNodesFor(view, req.Keys, len(req.Keys) == 0 && len(req.RowKeys) == 0, req.Span)
		resp.Subtrees = syncSubtreesFor(view, req.RowKeys)
	}
	return p2p.Message{Kind: p2p.KindSync, Payload: appendSyncResponse(nil, &resp)}, nil
}

// syncFetchFn performs one request of the walk: wanted subtree-root
// keys (node requests) and row requests in, served nodes and subtrees
// out. assembleSync calls it from concurrent goroutines when a wave is
// chunked, so implementations must be safe for concurrent use.
type syncFetchFn func(keys, rowKeys [][]byte) (SyncResponse, error)

// SyncOptions tunes the anti-entropy walk's latency/byte trade.
type SyncOptions struct {
	// Span is the speculative expansion depth requested per exchange:
	// the provider answers each wanted subtree root with span extra
	// levels, cutting rounds to ~depth/(span+1) at the cost of shipping
	// summaries the requester may already hold. 0 means the default
	// (syncDefaultSpan); negative disables expansion — the byte-optimal
	// one-level-per-round walk.
	Span int
	// Parallel bounds concurrent requests per wave: wide frontiers are
	// chunked across up to Parallel in-flight requests. 0 means the
	// default (syncDefaultParallel); values ≤ 1 keep waves to a single
	// request.
	Parallel int
}

func (o SyncOptions) normalized() SyncOptions {
	switch {
	case o.Span == 0:
		o.Span = syncDefaultSpan
	case o.Span < 0:
		o.Span = 0
	case o.Span > syncMaxSpan:
		o.Span = syncMaxSpan
	}
	if o.Parallel == 0 {
		o.Parallel = syncDefaultParallel
	}
	if o.Parallel < 1 {
		o.Parallel = 1
	}
	return o
}

// syncWave is one chunk of a wave's frontier: the node and row requests
// carried by a single request message.
type syncWave struct {
	keys    [][]byte
	rowKeys [][]byte
}

// chunkWave splits a wave's frontier round-robin across up to parallel
// requests, never slicing below syncMinChunk keys per request.
func chunkWave(keys, rowKeys [][]byte, parallel int) []syncWave {
	total := len(keys) + len(rowKeys)
	chunks := (total + syncMinChunk - 1) / syncMinChunk
	if chunks > parallel {
		chunks = parallel
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([]syncWave, chunks)
	// Round-robin keeps sibling subtrees (adjacent in the frontier) on
	// different requests, balancing per-request response sizes.
	for i, k := range keys {
		w := &out[i%chunks]
		w.keys = append(w.keys, k)
	}
	for i, k := range rowKeys {
		w := &out[i%chunks]
		w.rowKeys = append(w.rowKeys, k)
	}
	return out
}

// fetchWave issues one wave's chunk requests concurrently and returns
// the responses (in chunk order). Any chunk's error fails the wave.
func fetchWave(fetch syncFetchFn, waves []syncWave) ([]SyncResponse, error) {
	if len(waves) == 1 {
		resp, err := fetch(waves[0].keys, waves[0].rowKeys)
		if err != nil {
			return nil, err
		}
		return []SyncResponse{resp}, nil
	}
	resps := make([]SyncResponse, len(waves))
	errs := make([]error, len(waves))
	var wg sync.WaitGroup
	for i, w := range waves {
		wg.Add(1)
		go func(i int, w syncWave) {
			defer wg.Done()
			resps[i], errs[i] = fetch(w.keys, w.rowKeys)
		}(i, w)
	}
	wg.Wait()
	return resps, errors.Join(errs...)
}

// assembleSync drives the top-down walk against fetch and reconstructs
// the provider's view over base (the local replica supplying grafts and
// the schema). It returns the rebuilt table and the provider's version.
// The caller MUST verify the result against an authoritative hash
// before installing it.
func assembleSync(base *reldb.Table, fetch syncFetchFn, stats *SyncStats, opts SyncOptions) (*reldb.Table, uint64, error) {
	opts = opts.normalized()
	asm := reldb.NewMerkleAssembler(base)
	nodes := make(map[string]SyncNode)
	subtrees := make(map[string][]reldb.Row)
	// requested remembers every key already asked for (as node or rows),
	// so a provider that skips an unknown key is never re-asked — the
	// walk ends and the missing-node check arbitrates during assembly.
	requested := make(map[string]bool)
	// triaged marks nodes whose children have been classified, so
	// span-expanded nodes arriving ahead of their walk position are
	// triaged exactly once, when the walk reaches them.
	triaged := make(map[string]bool)
	var rootKey []byte
	var root []byte
	var seq uint64

	// triage classifies n's children — graft (already held locally),
	// inline rows, or descend — recursing immediately into children the
	// provider already expanded into this or an earlier response, so the
	// next wave's frontier starts where received structure ends.
	var wantNodes, wantRows [][]byte
	var triage func(n SyncNode)
	triage = func(n SyncNode) {
		if triaged[string(n.Key)] {
			return
		}
		triaged[string(n.Key)] = true
		for _, c := range []*SyncChild{n.Left, n.Right} {
			if c == nil {
				continue
			}
			if d, ok := childDigest(c); ok && asm.HasLocal(d) {
				continue // grafted during assembly
			}
			if _, have := subtrees[string(c.Key)]; have {
				continue
			}
			if cn, have := nodes[string(c.Key)]; have {
				triage(cn)
				continue
			}
			if requested[string(c.Key)] {
				continue
			}
			requested[string(c.Key)] = true
			if c.Size <= syncInlineRows {
				wantRows = append(wantRows, c.Key)
			} else {
				wantNodes = append(wantNodes, c.Key)
			}
		}
	}

	maxRounds := syncBaseRounds
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, 0, fmt.Errorf("%w: round bound exceeded", ErrSyncAborted)
		}
		var waves []syncWave
		if round == 0 {
			waves = []syncWave{{}} // empty lists: the tree root
		} else {
			waves = chunkWave(wantNodes, wantRows, opts.Parallel)
		}
		resps, err := fetchWave(fetch, waves)
		if err != nil {
			return nil, 0, err
		}
		stats.Rounds++
		stats.Requests += len(waves)
		if round == 0 {
			resp := resps[0]
			seq = resp.Seq
			root = resp.Root
			if resp.Empty {
				t, err := asm.Table()
				return t, seq, err
			}
			if len(resp.Nodes) == 0 {
				return nil, 0, fmt.Errorf("%w: empty first round", ErrSyncAborted)
			}
			rn := resp.Nodes[0]
			rootKey = rn.Key
			// At most one round per tree level: scale the bound with the
			// provider-reported size (root children cover all but one
			// row; a random treap's max depth is ~3·log2 n, allow 4).
			n := 1
			for _, c := range []*SyncChild{rn.Left, rn.Right} {
				if c != nil {
					n += c.Size
				}
			}
			maxRounds = syncBaseRounds + 4*bits.Len(uint(n))
		}
		// Merge every response before triage: span expansion ships
		// children in the same frame as their parent, and triage must
		// see them to recurse instead of re-requesting.
		for _, resp := range resps {
			if !bytes.Equal(resp.Root, root) {
				// The provider's view changed mid-walk; already-fetched
				// digests no longer fit together. The root — canonical
				// for the contents — is the exact detector, immune to
				// the seq-label/view-install race on the provider.
				return nil, 0, fmt.Errorf("%w: provider view changed mid-walk", ErrSyncAborted)
			}
			for _, st := range resp.Subtrees {
				if _, dup := subtrees[string(st.Key)]; dup {
					continue
				}
				subtrees[string(st.Key)] = st.Rows
				stats.RowsInline += len(st.Rows)
			}
			for _, n := range resp.Nodes {
				if _, dup := nodes[string(n.Key)]; dup {
					continue
				}
				nodes[string(n.Key)] = n
				stats.NodesFetched++
			}
		}
		// Triage grows from what was actually *asked for* this wave —
		// known-divergent roots — and recurses through their expanded
		// descendants. Expanded nodes NOT reachable that way are the
		// speculation waste (their subtree matched locally); triaging
		// them directly would walk into grafted territory.
		frontier := wantNodes
		if round == 0 {
			frontier = [][]byte{rootKey}
		}
		wantNodes, wantRows = nil, nil
		for _, k := range frontier {
			if n, ok := nodes[string(k)]; ok {
				triage(n)
			}
		}
		if len(wantNodes)+len(wantRows) == 0 {
			break
		}
	}

	// In-order assembly over the fetched structure.
	var build func(key []byte) error
	appendChild := func(c *SyncChild) error {
		if c == nil {
			return nil
		}
		if d, ok := childDigest(c); ok && asm.HasLocal(d) {
			// Graft the local copy (reusing entries and their cached
			// digests). The graft count comes from the local assembler,
			// never from the provider-claimed size.
			before := asm.Len()
			if err := asm.AppendLocal(d); err != nil {
				return err
			}
			stats.RowsGrafted += asm.Len() - before
			return nil
		}
		if rows, ok := subtrees[string(c.Key)]; ok {
			for _, r := range rows {
				if err := asm.AppendRow(r); err != nil {
					return err
				}
			}
			return nil
		}
		return build(c.Key)
	}
	build = func(key []byte) error {
		n, ok := nodes[string(key)]
		if !ok {
			return fmt.Errorf("%w: missing node", ErrSyncAborted)
		}
		if err := appendChild(n.Left); err != nil {
			return err
		}
		if err := asm.AppendRow(n.Row); err != nil {
			return err
		}
		return appendChild(n.Right)
	}
	if err := build(rootKey); err != nil {
		return nil, 0, err
	}
	t, err := asm.Table()
	return t, seq, err
}

func childDigest(c *SyncChild) ([32]byte, bool) {
	var d [32]byte
	if len(c.Digest) != len(d) {
		return d, false
	}
	copy(d[:], c.Digest)
	return d, true
}

// syncFrom runs the structural sync against the peer with the given
// address and returns the reconstructed view (named like base), the
// provider's version (minSeq or newer) and transfer stats: a candidate
// that acquire checks before anything is installed.
func (p *Peer) syncFrom(ctx context.Context, from identity.Address, shareID string, minSeq uint64, base *reldb.Table) (*reldb.Table, uint64, SyncStats, error) {
	var stats SyncStats
	if p.cfg.Transport == nil || p.cfg.Directory == nil {
		return nil, 0, stats, fmt.Errorf("core: peer %s has no data channel", p.Name())
	}
	endpoint, ok := p.cfg.Directory.Lookup(from)
	if !ok {
		return nil, 0, stats, fmt.Errorf("core: no endpoint known for %s", from)
	}
	opts := SyncOptions{Parallel: fanoutWorkers}.normalized()
	// Wave chunks fetch concurrently, so the closure guards the shared
	// byte counters; channelRequest is already safe for concurrent use
	// (Resync's fan-out exercises it).
	var statsMu sync.Mutex
	fetch := func(keys, rowKeys [][]byte) (SyncResponse, error) {
		req := SyncRequest{
			ShareID:   shareID,
			MinSeq:    minSeq,
			Span:      opts.Span,
			Keys:      keys,
			RowKeys:   rowKeys,
			Requester: p.Address(),
			PubKey:    append([]byte(nil), p.cfg.Identity.PublicKey()...),
			TsMicro:   p.cfg.Clock.Now().UnixMicro(),
		}
		req.Sig = p.cfg.Identity.Sign(req.signingBytes())
		payload := appendSyncRequest(nil, &req)
		statsMu.Lock()
		stats.BytesSent += len(payload)
		statsMu.Unlock()
		msg, err := p.channelRequest(ctx, endpoint, p2p.Message{Kind: p2p.KindSync, Payload: payload})
		if err != nil {
			return SyncResponse{}, fmt.Errorf("core: syncing %s from %s: %w", shareID, from, err)
		}
		statsMu.Lock()
		stats.BytesReceived += len(msg.Payload)
		statsMu.Unlock()
		resp, err := decodeSyncResponse(msg.Payload)
		if err == nil && resp.ShareID != shareID {
			err = fmt.Errorf("served share %q", resp.ShareID)
		}
		if err != nil {
			return SyncResponse{}, fmt.Errorf("core: bad sync response: %w", err)
		}
		return resp, nil
	}
	t, seq, err := assembleSync(base, fetch, &stats, opts)
	p.stats.syncRounds.Add(uint64(stats.Rounds))
	p.stats.syncRequests.Add(uint64(stats.Requests))
	if err != nil {
		return nil, 0, stats, err
	}
	return t, seq, stats, nil
}

// StructuralSync fetches the current payload of a share from the named
// counterparty via the anti-entropy walk, using the local replica for
// grafting, and reports what was transferred. The returned table is
// reconstructed but NOT installed; like Fetch, this supports ad-hoc
// reads, tests, and measurements — the resync path installs through the
// usual verify+put pipeline.
func (p *Peer) StructuralSync(ctx context.Context, from identity.Address, shareID string, minSeq uint64) (*reldb.Table, uint64, SyncStats, error) {
	s, err := p.share(shareID)
	if err != nil {
		return nil, 0, SyncStats{}, err
	}
	base, err := p.snapshotTable(s.ViewName)
	if err != nil {
		return nil, 0, SyncStats{}, err
	}
	return p.syncFrom(ctx, from, shareID, minSeq, base)
}
