package api

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/core"
	"medshare/internal/reldb"
)

// coalescer batches concurrent API write requests into single
// core.UpdateViews calls so they ride ONE group commit: the first
// writer to arrive opens a window, every writer landing inside it joins
// the batch, and when the window closes the opener flushes the whole
// batch in one call — one tx batch, one block, one receive round, so an
// API-driven write burst costs one block instead of one per request.
// The node produces that block as soon as the batch is submitted.
type coalescer struct {
	peer   *core.Peer
	window time.Duration

	mu  sync.Mutex
	cur *writeBatch

	// batches counts flushes; writes counts the requests they carried —
	// writes/batches is the realized HTTP-level coalescing factor.
	batches atomic.Uint64
	writes  atomic.Uint64
}

// writeBatch is one coalescing window's worth of writes.
type writeBatch struct {
	edits   []core.ViewEdit
	waiters []*writeWaiter
	done    chan struct{} // closed after flush; results are populated
	results map[string]core.ProposalResult
	err     error // batch-level (propose) error
	size    int
}

// writeWaiter is one request's slot in a batch.
type writeWaiter struct {
	shareID string
	mutErr  error // this request's own mutation error, if any
}

func newCoalescer(peer *core.Peer, window time.Duration) *coalescer {
	return &coalescer{peer: peer, window: window}
}

// submit enqueues one share's mutation and blocks until its batch
// flushes. It returns the proposal the write rode on (zero + false when
// the ops were a no-op), the number of requests in the batch, and the
// request's error.
func (c *coalescer) submit(ctx context.Context, shareID string, mutate func(t *reldb.Table) error) (core.ProposalResult, bool, int, error) {
	w := &writeWaiter{shareID: shareID}
	edit := core.ViewEdit{ShareID: shareID, Mutate: wrapMutate(w, mutate)}

	c.mu.Lock()
	b := c.cur
	opener := b == nil
	if opener {
		b = &writeBatch{done: make(chan struct{})}
		c.cur = b
	}
	b.edits = append(b.edits, edit)
	b.waiters = append(b.waiters, w)
	c.mu.Unlock()

	if opener {
		// The opener sleeps out the window, detaches the batch so the
		// next writer opens a fresh one, then flushes on behalf of
		// everyone in it.
		if c.window > 0 {
			t := time.NewTimer(c.window)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		c.mu.Lock()
		c.cur = nil
		c.mu.Unlock()
		c.flush(ctx, b)
	} else {
		select {
		case <-b.done:
		case <-ctx.Done():
			return core.ProposalResult{}, false, 0, ctx.Err()
		}
	}

	if w.mutErr != nil {
		return core.ProposalResult{}, false, b.size, w.mutErr
	}
	if r, ok := b.results[shareID]; ok {
		return r, true, b.size, nil
	}
	// No proposal for this share: either a genuine no-op or a
	// share-level failure folded into the batch error.
	return core.ProposalResult{}, false, b.size, b.err
}

// flush runs the batch through one UpdateViews group commit.
func (c *coalescer) flush(ctx context.Context, b *writeBatch) {
	b.size = len(b.edits)
	c.batches.Add(1)
	c.writes.Add(uint64(b.size))
	props, err := c.peer.UpdateViews(ctx, b.edits)
	b.results = make(map[string]core.ProposalResult, len(props))
	for _, p := range props {
		b.results[p.ShareID] = p
	}
	b.err = err
	close(b.done)
}

// wrapMutate captures a request's own mutation error so it can be
// attributed to that request rather than smeared across the batch.
func wrapMutate(w *writeWaiter, mutate func(t *reldb.Table) error) func(*reldb.Table) error {
	return func(t *reldb.Table) error {
		if err := mutate(t); err != nil {
			w.mutErr = err
			return err
		}
		return nil
	}
}
