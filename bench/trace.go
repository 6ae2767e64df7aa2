package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/store"
)

// The traced pass measures every layer from outside the program: the
// wrappers below sit on the seams the daemons already have (p2p.Transport,
// store.FS, node.Subscribe, a TCP relay between daemons) and the workload
// loops stamp their own calls. Nothing here runs in the untraced pass,
// which hands the daemons the bare TCPTransport and DirFS.

// span is one traced interval. Times are milliseconds since the tracer
// was created; ID is share + "/" + seq, shared by all spans of one update.
type span struct {
	Name   string  `json:"name"`
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// stampKey names one observed moment: where it was seen, what it was,
// and which update it belongs to.
type stampKey struct {
	where string // daemon name
	what  string // event name, "fetch.start", "fetch.end"
	id    string // share/seq, or a tx ID for follower lag
}

type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	stamps map[stampKey]time.Time
	ops    []tracedOp // recorded updates awaiting resolve

	// p2p counts, taken at the transport wrapper.
	msgs, requests             atomic.Int64
	gossipBytes, dataBytes     atomic.Int64
	otherBytes                 atomic.Int64
	wireBytes                  atomic.Int64 // relay, both directions
	fetchRTT                   samples
	fsyncs, writes, writeBytes atomic.Int64
	fsyncDur                   samples
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stamps: make(map[stampKey]time.Time)}
}

// samples is a mutex-guarded sample list (durations in ms).
type samples struct {
	mu sync.Mutex
	xs []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.xs = append(s.xs, ms(d))
	s.mu.Unlock()
}

func (s *samples) snapshot() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

func updateID(share string, seq uint64) string { return fmt.Sprintf("%s/%d", share, seq) }

// stamp records the first time a moment is observed.
func (t *tracer) stamp(where, what, id string, at time.Time) {
	k := stampKey{where, what, id}
	t.mu.Lock()
	if _, seen := t.stamps[k]; !seen {
		t.stamps[k] = at
	}
	t.mu.Unlock()
}

func (t *tracer) stampAt(where, what, id string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.stamps[stampKey{where, what, id}]
	return at, ok
}

// firstStampAt returns the earliest observation of a moment on any of
// the daemons.
func (t *tracer) firstStampAt(wheres []string, what, id string) (first time.Time, ok bool) {
	for _, where := range wheres {
		if at, seen := t.stampAt(where, what, id); seen && (!ok || at.Before(first)) {
			first, ok = at, true
		}
	}
	return first, ok
}

// addSpan records the interval as observed: where two goroutines' stamps
// come out of order (a watcher scheduled after the call it brackets
// returned), the span's end precedes its start and its duration reads
// negative rather than being hidden.
func (t *tracer) addSpan(name, id, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: ms(start.Sub(t.epoch)), End: ms(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// spanDurations returns the durations (ms) of every span with the name.
func (t *tracer) spanDurations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTime returns, for every span with the name, its duration minus the
// part of that interval its child spans (same ID, Parent == name) cover.
func (t *tracer) selfTime(name string) (self, total []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[string][]span)
	for _, s := range t.spans {
		if s.Parent == name {
			children[s.ID] = append(children[s.ID], s)
		}
	}
	for _, s := range t.spans {
		if s.Name != name || s.Parent != "" {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self = append(self, s.End-s.Start-covered)
		total = append(total, s.End-s.Start)
	}
	return self, total
}

// dump writes the spans as JSONL.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// --- update spans ---

// tracedOp is one traced update: who proposed it, who had to fetch it,
// when the edit call (or, open loop, the scheduled arrival) began and
// when WaitFinal returned. A cascade carries the second update it caused
// and when that one was final.
type tracedOp struct {
	share        string
	seq          uint64
	origin, peer string // daemon names: proposer and counterparty
	t0, t5       time.Time

	cascadeShare string // "" unless the update cascaded
	cascadeSeq   uint64
	t6           time.Time
}

// record queues an update for resolve. Spans are built after the
// measured phase, not inline: the watcher goroutines stamp events a
// scheduler turn after WaitFinal has already seen the state change.
func (t *tracer) record(o tracedOp) {
	t.mu.Lock()
	t.ops = append(t.ops, o)
	t.mu.Unlock()
}

// resolve turns every recorded update into its root span and the five
// child spans that tile it: the edit up to the request's commit (the
// request event's first sighting on any daemon's node — the origin's own
// call may return after the counterparty has begun to fetch), the wait
// until the counterparty's fetch reaches its transport, the fetch itself,
// apply-and-ack until the final event reaches the origin's node, and the
// rest of WaitFinal. A cascade adds its own root and the hop between the
// first update's final event and the second's request event, both on the
// daemon that re-proposes.
func (t *tracer) resolve(daemons []string) {
	t.mu.Lock()
	ops := t.ops
	t.ops = nil
	t.mu.Unlock()
	for _, o := range ops {
		id := updateID(o.share, o.seq)
		t.addSpan("update", id, "", o.t0, o.t5)
		req, ok0 := t.firstStampAt(daemons, sharereg.EvUpdateRequested, id)
		fs, ok1 := t.stampAt(o.peer, "fetch.start", id)
		fe, ok2 := t.stampAt(o.peer, "fetch.end", id)
		fin, ok3 := t.stampAt(o.origin, sharereg.EvUpdateFinal, id)
		if ok0 && ok1 && ok2 && ok3 {
			t.addSpan("core.propose", id, "update", o.t0, req)
			t.addSpan("core.notify_gap", id, "update", req, fs)
			t.addSpan("p2p.fetch", id, "update", fs, fe)
			t.addSpan("core.apply_ack", id, "update", fe, fin)
			t.addSpan("core.final_wait", id, "update", fin, o.t5)
		} // else applied another way (resync); the root's self time shows it
		if o.cascadeShare == "" {
			continue
		}
		t.addSpan("cascade", id, "", o.t0, o.t6)
		fin, ok1 = t.stampAt(o.peer, sharereg.EvUpdateFinal, id)
		next, ok2 := t.stampAt(o.peer, sharereg.EvUpdateRequested, updateID(o.cascadeShare, o.cascadeSeq))
		if ok1 && ok2 {
			t.addSpan("core.cascade_hop", id, "cascade", fin, next)
		}
	}
}

// --- node.Subscribe stamping ---

// watchEvents stamps every sharereg event the daemon's node delivers, by
// update ID and by transaction ID (the latter pairs the same event on
// two nodes for follower lag). The returned stop func waits for the
// goroutine.
func (t *tracer) watchEvents(where string, n *node.Node) (stop func()) {
	// Buffer sized past the largest burst a workload commits between two
	// scheduler turns (hub_fanout: 32 requests + 32 acks + 32 finals).
	events, cancel := n.Subscribe(4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			t.stampEvent(where, ev, time.Now())
		}
	}()
	return func() { cancel(); <-done }
}

func (t *tracer) stampEvent(where string, ev contract.Event, at time.Time) {
	if ev.Contract != sharereg.ContractName {
		return
	}
	p, err := sharereg.DecodeEvent(ev.Payload)
	if err != nil {
		return
	}
	t.stamp(where, ev.Name, updateID(p.ShareID, p.Seq), at)
	t.stamp(where, ev.Name, ev.TxID, at)
}

// --- p2p.Transport wrapper ---

type tracedTransport struct {
	p2p.Transport
	t     *tracer
	where string
}

func isGossip(kind string) bool {
	return kind == p2p.KindTx || kind == p2p.KindTxBatch || kind == p2p.KindBlock
}

func (tt *tracedTransport) count(kind string, n int) {
	switch {
	case isGossip(kind):
		tt.t.gossipBytes.Add(int64(n))
	case kind == p2p.KindDataFetch || kind == p2p.KindSync:
		tt.t.dataBytes.Add(int64(n))
	default:
		tt.t.otherBytes.Add(int64(n))
	}
}

func (tt *tracedTransport) Send(to string, msg p2p.Message) error {
	tt.t.msgs.Add(1)
	tt.count(msg.Kind, len(msg.Payload))
	return tt.Transport.Send(to, msg)
}

func (tt *tracedTransport) Broadcast(msg p2p.Message) error {
	n := len(tt.Transport.Peers())
	tt.t.msgs.Add(int64(n))
	tt.count(msg.Kind, n*len(msg.Payload))
	return tt.Transport.Broadcast(msg)
}

func (tt *tracedTransport) Request(ctx context.Context, to string, msg p2p.Message) (p2p.Message, error) {
	tt.t.requests.Add(1)
	var id string
	if msg.Kind == p2p.KindDataFetch {
		var req struct {
			ShareID string `json:"shareId"`
			MinSeq  uint64 `json:"minSeq"`
		}
		if json.Unmarshal(msg.Payload, &req) == nil {
			id = updateID(req.ShareID, req.MinSeq)
		}
	}
	start := time.Now()
	resp, err := tt.Transport.Request(ctx, to, msg)
	end := time.Now()
	tt.count(msg.Kind, len(msg.Payload)+len(resp.Payload))
	if id != "" && err == nil {
		tt.t.stamp(tt.where, "fetch.start", id, start)
		tt.t.stamp(tt.where, "fetch.end", id, end)
		tt.t.fetchRTT.add(end.Sub(start))
	}
	return resp, err
}

// --- store.FS wrapper ---

type tracedFS struct {
	store.FS
	t *tracer
}

func (f *tracedFS) OpenAppend(name string) (store.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t}, nil
}

type tracedFile struct {
	store.File
	t *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	f.t.writes.Add(1)
	f.t.writeBytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.fsyncs.Add(1)
	f.t.fsyncDur.add(time.Since(start))
	return err
}

// --- loopback relay ---

// relay is a byte-counting TCP proxy in front of one daemon's listener:
// in the traced pass every other daemon dials the relay, so the bytes
// that actually cross the socket (length prefixes and JSON framing
// included) are counted without touching p2p.
type relay struct {
	ln     net.Listener
	target string
	bytes  *atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newRelay(target string, bytes *atomic.Int64) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay listen: %w", err)
	}
	r := &relay{ln: ln, target: target, bytes: bytes, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.serve()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) serve() {
	defer r.wg.Done()
	for {
		in, err := r.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", r.target)
		if err != nil {
			in.Close()
			continue
		}
		r.mu.Lock()
		r.conns[in], r.conns[out] = struct{}{}, struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.forward(in, out)
	}
}

// forward pipes both directions until each side has closed, then drops
// the pair.
func (r *relay) forward(in, out net.Conn) {
	defer r.wg.Done()
	done := make(chan struct{})
	go func() {
		r.pipe(out, in)
		close(done)
	}()
	r.pipe(in, out)
	<-done
	in.Close()
	out.Close()
	r.mu.Lock()
	delete(r.conns, in)
	delete(r.conns, out)
	r.mu.Unlock()
}

// pipe copies src to dst, counting, and half-closes dst at EOF so a
// response still drains the other way.
func (r *relay) pipe(dst, src net.Conn) {
	buf := make([]byte, 64<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			r.bytes.Add(int64(n))
			if _, werr := dst.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	if tc, ok := dst.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
}

func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}
