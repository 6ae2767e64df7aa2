package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"medshare/internal/api"
	"medshare/internal/bx"
	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// The deployed profile: what cmd/medshared runs when given -data-dir,
// -group-commit-ms 1 and -block-ms 10 (the settings E16/E17 tuned), one
// daemon per stakeholder.
const (
	networkName       = "medshare-bench"
	blockInterval     = 10 * time.Millisecond
	groupCommitWindow = time.Millisecond
	coalesceWindow    = 2 * time.Millisecond
)

// daemon is one stakeholder assembled in-process exactly as
// cmd/medshared's run() assembles it: one TCP transport shared by node
// and peer, one fsyncing DirFS store, node, peer, and optionally the HTTP
// edge on a real listener.
type daemon struct {
	name string
	id   *identity.Identity
	dir  string

	tcp  *p2p.TCPTransport
	st   *store.Store
	node *node.Node
	peer *core.Peer

	api  *api.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when hs.Serve returns
}

// deployment is a running set of daemons plus what tears them down.
type deployment struct {
	root    string
	daemons []*daemon
	engine  func() consensus.Engine
	tr      *tracer
	relays  []*relay
	stops   []func()
	cancel  context.CancelFunc
}

func (d *deployment) daemon(name string) *daemon {
	for _, dm := range d.daemons {
		if dm.name == name {
			return dm
		}
	}
	panic("bench: no daemon " + name)
}

func (d *deployment) names() []string {
	names := make([]string, len(d.daemons))
	for i, dm := range d.daemons {
		names[i] = dm.name
	}
	return names
}

// deploy starts one daemon per name under root; the first is the sealer.
// httpOn names the daemon that serves the HTTP edge ("" for none). A
// non-nil tracer puts the counting wrappers and the byte-counting relay
// in place; nil runs the bare types.
//
// Authority set. medshared makes every participant a strict-PoA
// authority. In this configuration (TCP, 10 ms blocks, three daemons)
// that panics within 3–201 blocks, five runs of five, with and without
// the store:
//
//	node …: state root mismatch at height N
//
// node.commitBlock publishes the new head through chain.Store.Add before
// applyBlock has executed it, so produceLoop on the next authority in the
// rotation clones n.state while the gossip goroutine is still mutating
// it. The benchmark therefore seals on the first daemon only; the others
// validate: they still submit and gossip transactions, receive every
// block over TCP, re-execute it, and persist it. To reproduce, pass every
// daemon's address to NewPoA below.
func deploy(root string, names []string, httpOn string, tr *tracer) (*deployment, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &deployment{root: root, tr: tr, cancel: cancel}
	ok := false
	defer func() {
		if !ok {
			d.stop()
		}
	}()

	dir := core.NewDirectory()
	for _, name := range names {
		id := identity.FromSeed(name, "bench/"+name)
		dir.Set(id.Address(), name)
		tcp, err := p2p.NewTCPTransport(name, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.daemons = append(d.daemons, &daemon{name: name, id: id, tcp: tcp, dir: filepath.Join(root, name)})
	}
	sealer := d.daemons[0].id.Address()
	d.engine = func() consensus.Engine { return consensus.NewPoA(true, sealer) }

	// Peer addresses: direct, or through one relay per destination.
	addr := make(map[string]string, len(names))
	for _, dm := range d.daemons {
		addr[dm.name] = dm.tcp.Addr()
		if tr != nil {
			r, err := newRelay(dm.tcp.Addr(), &tr.wireBytes)
			if err != nil {
				return nil, err
			}
			d.relays = append(d.relays, r)
			addr[dm.name] = r.addr()
		}
	}
	for _, dm := range d.daemons {
		for _, other := range d.daemons {
			if other != dm {
				dm.tcp.AddPeer(other.name, addr[other.name])
			}
		}
	}

	for _, dm := range d.daemons {
		var transport p2p.Transport = dm.tcp
		opts := store.Options{Dir: dm.dir}
		if tr != nil {
			transport = &tracedTransport{Transport: dm.tcp, t: tr, where: dm.name}
			fs, err := store.NewDirFS(dm.dir)
			if err != nil {
				return nil, err
			}
			opts = store.Options{FS: &tracedFS{FS: fs, t: tr}}
		}
		var err error
		if dm.st, err = store.Open(opts); err != nil {
			return nil, fmt.Errorf("open data dir %s: %w", dm.dir, err)
		}
		dm.node, err = node.New(node.Config{
			NetworkName:       networkName,
			Identity:          dm.id,
			Engine:            d.engine(),
			Registry:          contract.NewRegistry(sharereg.New()),
			BlockInterval:     blockInterval,
			GroupCommitWindow: groupCommitWindow,
			Transport:         transport,
			Store:             dm.st,
		})
		if err != nil {
			return nil, err
		}
		dm.node.Start(ctx)
		if tr != nil {
			d.stops = append(d.stops, tr.watchEvents(dm.name, dm.node))
		}
		dm.peer, err = core.NewPeer(core.Config{
			Identity:  dm.id,
			DB:        reldb.NewDatabase(dm.name),
			Node:      dm.node,
			Transport: transport,
			Directory: dir,
			Store:     dm.st,
		})
		if err != nil {
			return nil, err
		}
		dm.peer.Start()
		if dm.name == httpOn {
			if err := dm.serveHTTP(); err != nil {
				return nil, err
			}
		}
	}
	ok = true
	return d, nil
}

func (dm *daemon) serveHTTP() error {
	srv, err := api.New(api.Config{Peer: dm.peer, Node: dm.node, CoalesceWindow: coalesceWindow, Store: dm.st})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("api listen: %w", err)
	}
	dm.api = srv
	dm.hs = &http.Server{Handler: srv.Handler()}
	dm.url = "http://" + l.Addr().String()
	dm.done = make(chan struct{})
	go func() {
		defer close(dm.done)
		_ = dm.hs.Serve(l) // returns ErrServerClosed on stop
	}()
	return nil
}

// stop tears every daemon down in medshared's order (HTTP, peer, node —
// which writes the clean checkpoint — store, transport) and waits for
// every goroutine the deployment started.
func (d *deployment) stop() {
	for _, dm := range d.daemons {
		if dm.hs != nil {
			dm.hs.Close()
			<-dm.done
		}
	}
	for _, dm := range d.daemons {
		if dm.peer != nil {
			dm.peer.Stop()
		}
	}
	for _, dm := range d.daemons {
		if dm.node != nil {
			dm.node.Stop()
		}
	}
	for _, stop := range d.stops {
		stop()
	}
	d.cancel()
	for _, dm := range d.daemons {
		if dm.st != nil {
			dm.st.Close()
		}
		dm.tcp.Close()
	}
	for _, r := range d.relays {
		r.close()
	}
}

// waitConverged blocks until every node has the sealer's height and state
// root and no transaction is pending anywhere: the quiesced state the
// output checks and the crash image are taken in.
func (d *deployment) waitConverged(ctx context.Context) error {
	for {
		sealer := d.daemons[0].node
		h, root := sealer.Store().Height(), sealer.State().Root()
		same := true
		for _, dm := range d.daemons {
			if dm.node.Store().Height() != h || dm.node.State().Root() != root || dm.node.PendingTxs() != 0 {
				same = false
			}
		}
		if same && sealer.Store().Height() == h {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("nodes did not converge: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// diskBytes sums the size of every file under the daemons' data dirs.
func (d *deployment) diskBytes() int64 {
	var total int64
	for _, dm := range d.daemons {
		total += dirBytes(dm.dir)
	}
	return total
}

func dirBytes(dir string) int64 {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// copyDir copies a (flat) data directory: the crash image. The source is
// quiesced and every commit was fsynced, so the copy is what a power cut
// at this instant would leave — no clean-shutdown checkpoint.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// binding is one daemon's side of one share: what AttachShare needs.
type binding struct {
	share  string
	daemon string
	source string
	view   string
	lens   func() bx.Lens
}

// recovered is a daemon restarted from a crash image, with the time each
// stage took.
type recovered struct {
	open, node, attach time.Duration
	st                 *store.Store
	nd                 *node.Node
	peer               *core.Peer
	tcp                *p2p.TCPTransport
}

func (r *recovered) total() time.Duration { return r.open + r.node + r.attach }

func (r *recovered) close() {
	r.st.Close()
	r.tcp.Close()
}

// recoverImage restarts dm from a copy of its data dir the way medshared
// would after a crash: open the store (scan, verify, truncate a torn
// tail), build the node (replay and verify the chain), build the peer,
// load the role's initial tables and attach every share (verified
// restore from the store). The node is never started: nothing here waits
// on the network.
func (d *deployment) recoverImage(dm *daemon, image string, initial []*reldb.Table, binds []binding) (*recovered, error) {
	if err := copyDir(dm.dir, image); err != nil {
		return nil, err
	}
	tcp, err := p2p.NewTCPTransport(dm.name, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &recovered{tcp: tcp}
	t0 := time.Now()
	if r.st, err = store.Open(store.Options{Dir: image}); err != nil {
		tcp.Close()
		return nil, err
	}
	t1 := time.Now()
	r.nd, err = node.New(node.Config{
		NetworkName:       networkName,
		Identity:          dm.id,
		Engine:            d.engine(),
		Registry:          contract.NewRegistry(sharereg.New()),
		BlockInterval:     blockInterval,
		GroupCommitWindow: groupCommitWindow,
		Transport:         tcp,
		Store:             r.st,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	t2 := time.Now()
	db := reldb.NewDatabase(dm.name)
	for _, t := range initial {
		db.PutTable(t)
	}
	r.peer, err = core.NewPeer(core.Config{
		Identity: dm.id, DB: db, Node: r.nd, Transport: tcp,
		Directory: core.NewDirectory(), Store: r.st,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	for _, b := range binds {
		if err := r.peer.AttachShare(b.share, b.source, b.lens(), b.view); err != nil {
			r.close()
			return nil, fmt.Errorf("recover attach %s: %w", b.share, err)
		}
	}
	t3 := time.Now()
	r.open, r.node, r.attach = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return r, nil
}
