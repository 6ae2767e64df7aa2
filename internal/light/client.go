package light

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/chain"
	"medshare/internal/contract/sharereg"
	"medshare/internal/reldb"
	"medshare/internal/statedb"
)

// Errors reported by the client.
var (
	// ErrVerification marks a proof or hash check that failed against
	// verified chain state — served data that is provably wrong, never a
	// transient condition.
	ErrVerification = errors.New("light: verification failed")
	// ErrNoPayload marks a share whose on-chain metadata carries no
	// finalized payload hash yet (no acknowledged update); there is
	// nothing a verified read could verify against.
	ErrNoPayload = errors.New("light: share has no finalized payload yet")
	// ErrNotSubscribed marks a read on a share the client never
	// subscribed to.
	ErrNotSubscribed = errors.New("light: share not subscribed")
)

// readAttempts bounds how many times Read re-proves the share head and
// retries when a fetched row hashes against a different version than
// the proven head (the serving peer committed a new update between the
// two calls). Verification failures are never retried — only staleness.
// Between attempts the client backs off staleBackoff << attempt, so a
// burst of writes on the serving peer cannot exhaust the budget inside
// a single inconsistency window.
const (
	readAttempts = 6
	staleBackoff = 2 * time.Millisecond
)

// headerBatchLimit is the most headers a client accepts per Headers
// response page (a defense cap; servers page well below it).
const headerBatchLimit = 1 << 16

// maxCachedRows bounds the verified row cache per share. At the cap an
// arbitrary entry is evicted.
const maxCachedRows = 1024

// Config configures a light client.
type Config struct {
	// Network names the chain; the client computes the genesis locally
	// and trusts nothing below it.
	Network string
	// Verify is the consensus header check (e.g. a strict PoA engine's
	// VerifyHeader). Nil means linkage-only verification — tests only.
	Verify chain.HeaderVerifier
	// Source is where headers, share heads and rows are pulled from.
	Source Source
}

// cachedRow is one verified row pinned to the share version it was
// verified at.
type cachedRow struct {
	row reldb.Row
	seq uint64
}

// shareState is everything the client holds for one subscribed share —
// fixed-size metadata plus the bounded row cache; nothing here grows
// with the view.
type shareState struct {
	mu sync.Mutex
	// headKnown is set after the first successful chain-proven head.
	headKnown bool
	// seq and payloadHash are the chain-proven share version: every row
	// the client accepts recomputes to this hash.
	seq         uint64
	payloadHash [32]byte
	// provenHeight is the chain height the head proof verified against.
	provenHeight uint64
	rows         map[string]cachedRow
}

// Client is the light-client runtime: a verified header chain, one
// proven head per subscribed share, and a bounded cache of
// proof-verified rows. Per-reader state is O(headers + subscribed
// shares + cached rows) — sublinear in (indeed, independent of) the
// size of any shared view. Safe for concurrent use.
//
// The client assumes the finality of the underlying chain (PoA in this
// system): it follows a single header sequence and does not reorg.
//
// Freshness: the client learns of a new share version only by proving
// the share's head again, which it does on the first read of a share
// and whenever a fetched row does not hash to the proven head (the
// serving peer has moved on). A cached row is served at the seq of the
// client's last head proof, however far the chain has moved since; a
// read of an uncached key finds the newer version and moves the head
// along. A reader that must see the latest version starts a fresh
// client, as `medsharectl light` does on every call.
type Client struct {
	cfg     Config
	headers *chain.HeaderChain

	mu     sync.Mutex
	shares map[string]*shareState

	// Counters; read via Stats.
	cacheHits      atomic.Uint64
	cacheMisses    atomic.Uint64
	rowsVerified   atomic.Uint64
	verifyFailures atomic.Uint64
	headRefreshes  atomic.Uint64
	staleRetries   atomic.Uint64
	wireBytes      atomic.Uint64
}

// New builds a light client anchored on the named network's local
// genesis.
func New(cfg Config) (*Client, error) {
	if cfg.Source == nil {
		return nil, errors.New("light: config needs a Source")
	}
	return &Client{
		cfg:     cfg,
		headers: chain.NewHeaderChain(cfg.Network, cfg.Verify),
		shares:  make(map[string]*shareState),
	}, nil
}

// Subscribe registers interest in a share. Reads are only served for
// subscribed shares.
func (c *Client) Subscribe(shareID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.shares[shareID]; !ok {
		c.shares[shareID] = &shareState{rows: make(map[string]cachedRow)}
	}
}

// SyncHeaders pulls and verifies headers from the source until the
// client's tip catches the serving tip. Returns the number of headers
// appended.
func (c *Client) SyncHeaders(ctx context.Context) (int, error) {
	appended := 0
	for {
		from := c.headers.Height() + 1
		hs, n, err := c.src().Headers(ctx, from)
		c.wireBytes.Add(uint64(n))
		if err != nil {
			return appended, err
		}
		if len(hs) == 0 || len(hs) > headerBatchLimit {
			break
		}
		before := c.headers.Height()
		for i := range hs {
			err := c.headers.Append(hs[i])
			if errors.Is(err, chain.ErrHeaderStale) {
				continue
			}
			if err != nil {
				return appended, err
			}
			appended++
		}
		if c.headers.Height() == before {
			break
		}
	}
	return appended, nil
}

func (c *Client) src() Source { return c.cfg.Source }

// Read returns one row of a subscribed share's view, verified against
// the chain: the row's membership proof must hash to a row root whose
// table hash equals the payload hash committed on-chain for the share's
// current sequence number, under a state proof against a verified block
// header. A cached row is returned while it was verified at the proven
// seq (see Client for what that promises).
func (c *Client) Read(ctx context.Context, shareID string, key reldb.Row) (reldb.Row, error) {
	c.mu.Lock()
	s, ok := c.shares[shareID]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotSubscribed, shareID)
	}

	ck := orderedKey(key)
	s.mu.Lock()
	if s.headKnown {
		if r, ok := s.rows[ck]; ok && r.seq == s.seq {
			s.mu.Unlock()
			c.cacheHits.Add(1)
			return r.row, nil
		}
	}
	s.mu.Unlock()
	c.cacheMisses.Add(1)

	force := false
	for attempt := 0; attempt < readAttempts; attempt++ {
		if err := c.refreshHead(ctx, shareID, s, force); err != nil {
			return nil, err
		}
		// The head may have just been re-proven at a seq the cache
		// already holds this key for.
		s.mu.Lock()
		if r, ok := s.rows[ck]; ok && r.seq == s.seq {
			s.mu.Unlock()
			c.cacheHits.Add(1)
			return r.row, nil
		}
		seq, want := s.seq, s.payloadHash
		s.mu.Unlock()

		rf, n, err := c.src().Row(ctx, shareID, key)
		c.wireBytes.Add(uint64(n))
		if err != nil {
			return nil, err
		}
		err = verifyFetch(&rf, key, want)
		if errors.Is(err, errStaleFetch) {
			// The serving replica moved (or lags) relative to our proven
			// head; re-prove the head and try again. Hash mismatches are
			// indistinguishable from tampering a priori, but tampering
			// cannot survive a fresh head proof — exhaustion of the
			// retry budget is reported as a verification failure.
			c.staleRetries.Add(1)
			force = true
			timer := time.NewTimer(staleBackoff << attempt)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
			continue
		}
		if err != nil {
			c.verifyFailures.Add(1)
			return nil, err
		}

		s.mu.Lock()
		// Only cache under the seq the verification anchored to, and
		// only if the share state still shows it (a concurrent refresh
		// may have advanced it).
		if s.seq == seq {
			if len(s.rows) >= maxCachedRows {
				for k := range s.rows {
					delete(s.rows, k)
					break
				}
			}
			s.rows[ck] = cachedRow{row: rf.Row, seq: seq}
		}
		s.mu.Unlock()
		c.rowsVerified.Add(1)
		return rf.Row, nil
	}
	c.verifyFailures.Add(1)
	return nil, fmt.Errorf("%w: share %s row did not verify against the proven head after %d attempts",
		ErrVerification, shareID, readAttempts)
}

// refreshHead proves the share's current on-chain metadata against a
// verified header. With force=false a known head is kept.
func (c *Client) refreshHead(ctx context.Context, shareID string, s *shareState, force bool) error {
	s.mu.Lock()
	if s.headKnown && !force {
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	c.headRefreshes.Add(1)

	sh, n, err := c.src().ShareHead(ctx, shareID)
	c.wireBytes.Add(uint64(n))
	if err != nil {
		return err
	}
	hdr, ok := c.headers.AtHeight(sh.Height)
	if !ok {
		// The proof anchors above our tip; catch the header chain up
		// first.
		if _, err := c.SyncHeaders(ctx); err != nil {
			return err
		}
		if hdr, ok = c.headers.AtHeight(sh.Height); !ok {
			return fmt.Errorf("%w: share %s head proof at height %d beyond verified tip %d",
				ErrVerification, shareID, sh.Height, c.headers.Height())
		}
	}
	if !statedb.VerifyKeyProof(hdr.StateRoot, "share/"+shareID, sh.Meta, sh.Version, sh.Proof) {
		c.verifyFailures.Add(1)
		return fmt.Errorf("%w: share %s state proof does not verify against header %d",
			ErrVerification, shareID, sh.Height)
	}
	meta, err := sharereg.DecodeMeta(sh.Meta)
	if err != nil || meta.ID != shareID {
		c.verifyFailures.Add(1)
		return fmt.Errorf("%w: share %s head carries foreign or corrupt metadata", ErrVerification, shareID)
	}
	if meta.LastPayloadHash == "" {
		return fmt.Errorf("%w: %s", ErrNoPayload, shareID)
	}
	want, err := hex.DecodeString(meta.LastPayloadHash)
	if err != nil || len(want) != 32 {
		c.verifyFailures.Add(1)
		return fmt.Errorf("%w: share %s on-chain payload hash is malformed", ErrVerification, shareID)
	}

	s.mu.Lock()
	if meta.Seq != s.seq {
		// A newer (or, on a lagging server, older-proven) version:
		// every cached row was verified under a different payload and
		// must go.
		for k := range s.rows {
			delete(s.rows, k)
		}
	}
	s.seq = meta.Seq
	copy(s.payloadHash[:], want)
	s.provenHeight = sh.Height
	s.headKnown = true
	s.mu.Unlock()
	return nil
}

// errStaleFetch marks a row fetch whose table hash does not match the
// proven head — retryable after re-proving the head.
var errStaleFetch = errors.New("light: fetched row is for a different share version")

// verifyFetch checks a row fetch against the chain-proven payload hash:
//
//  1. the served schema hashes to the SchemaSum in the table-hash
//     preimage,
//  2. sha256(SchemaSum ‖ Rows ‖ Root) equals the proven payload hash
//     (binding Root to the on-chain version),
//  3. the proven row's key columns equal the requested key (no
//     row-substitution within the table),
//  4. the row's membership proof verifies against Root.
//
// Steps 1, 3 and 4 failing mean tampering (never retryable); step 2
// failing usually means the serving replica is at another version.
func verifyFetch(rf *RowFetch, key reldb.Row, wantPayload [32]byte) error {
	if reldb.SchemaSumOf(rf.Schema) != rf.SchemaSum {
		return fmt.Errorf("%w: served schema does not hash to the committed schema sum", ErrVerification)
	}
	var buf [72]byte
	copy(buf[:32], rf.SchemaSum[:])
	binary.BigEndian.PutUint64(buf[32:40], uint64(rf.Rows))
	copy(buf[40:], rf.Root[:])
	if sha256.Sum256(buf[:]) != wantPayload {
		return errStaleFetch
	}
	keyIdx := rf.Schema.KeyIndexes()
	if len(keyIdx) != len(key) {
		return fmt.Errorf("%w: key arity %d does not match schema key %d", ErrVerification, len(key), len(keyIdx))
	}
	for i, idx := range keyIdx {
		if idx < 0 || idx >= len(rf.Row) {
			return fmt.Errorf("%w: schema key column out of row range", ErrVerification)
		}
		got := rf.Row[idx].AppendOrdered(nil)
		want := key[i].AppendOrdered(nil)
		if string(got) != string(want) {
			return fmt.Errorf("%w: proven row is for a different key", ErrVerification)
		}
	}
	if !reldb.VerifyRowProof(rf.Root, rf.Row, rf.Proof) {
		return fmt.Errorf("%w: row membership proof does not verify", ErrVerification)
	}
	return nil
}

// orderedKey is the canonical cache key for a key tuple — the same
// ordered encoding the row tree sorts by, so distinct keys never
// collide.
func orderedKey(key reldb.Row) string {
	var kb []byte
	for _, v := range key {
		kb = v.AppendOrdered(kb)
	}
	return string(kb)
}

// Stats is a snapshot of the client's counters and retained state.
type Stats struct {
	// Height is the verified tip height.
	Height uint64
	// HeaderBytes is the binary size of the retained header chain.
	HeaderBytes int
	// Shares is the number of subscribed shares.
	Shares int
	// CachedRows counts verified rows currently cached across shares.
	CachedRows int
	// CacheHits / CacheMisses split reads served from the verified
	// cache vs. reads that fetched.
	CacheHits, CacheMisses uint64
	// RowsVerified counts proof-verified fetched rows.
	RowsVerified uint64
	// VerifyFailures counts rejections (tamper, bad proof, retry
	// exhaustion).
	VerifyFailures uint64
	// HeadRefreshes counts share-head provings.
	HeadRefreshes uint64
	// StaleRetries counts row fetches discarded for anchoring to a
	// different version than the proven head.
	StaleRetries uint64
	// WireBytes is the total request+response payload bytes moved.
	WireBytes uint64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	st := Stats{
		Height:         c.headers.Height(),
		HeaderBytes:    c.headers.Bytes(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		RowsVerified:   c.rowsVerified.Load(),
		VerifyFailures: c.verifyFailures.Load(),
		HeadRefreshes:  c.headRefreshes.Load(),
		StaleRetries:   c.staleRetries.Load(),
		WireBytes:      c.wireBytes.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Shares = len(c.shares)
	for _, s := range c.shares {
		s.mu.Lock()
		st.CachedRows += len(s.rows)
		s.mu.Unlock()
	}
	return st
}

// Proven returns the share version the client last proved on-chain —
// its seq and the height of the header the proof verified against, the
// anchor of every row Read returns for the share. Both are zero before
// the first head proof.
func (c *Client) Proven(shareID string) (seq, height uint64) {
	c.mu.Lock()
	s, subscribed := c.shares[shareID]
	c.mu.Unlock()
	if !subscribed {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq, s.provenHeight
}

// StateBytes reports the client's retained state size: the header
// chain's binary size plus per-share metadata and the canonical
// encoding of every cached row. This is the "per-reader state" number
// to compare against a full replica — deterministic, no allocator
// noise.
func (c *Client) StateBytes() int {
	n := c.headers.Bytes()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shares {
		s.mu.Lock()
		n += 64 // seq, payload hash, proven height, flags
		for k, r := range s.rows {
			n += len(k) + len(r.row.AppendCanonical(nil)) + 8
		}
		s.mu.Unlock()
	}
	return n
}
