// Package daemon assembles one stakeholder of the paper's Fig. 2 as a
// running process: a TCP transport, a strict-PoA blockchain node running
// the share contract, an optional durable store, a data-sharing peer over
// the local database, and an optional HTTP edge. cmd/medshared runs one;
// the TCP end-to-end tests run two in one binary.
package daemon

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"medshare/internal/api"
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

// HTTP API connection bounds: a client that trickles its request headers
// or parks an idle keep-alive connection loses it after these, so it
// cannot hold a connection and a goroutine forever.
const (
	apiReadHeaderTimeout = 10 * time.Second
	apiIdleTimeout       = 2 * time.Minute
)

// resyncInterval paces the peer's repair loop (core.Config.ResyncInterval):
// a missed pending update, a missed final or a replica whose content the
// on-chain payload hash disagrees with heals within about this long, with
// no operator `resync`. A scan reads each share's on-chain metadata and
// its view's cached root, and fetches only what is stale.
const resyncInterval = time.Second

// Participant is one configured stakeholder: its name, the seed its
// identity derives from, and the TCP address its daemon listens on.
type Participant struct{ Name, Seed, Addr string }

// ParseParticipants parses a comma-separated list of name=seed@host:port
// entries. The address may be left out (name=seed): a light client needs
// only the seeds, while Open rejects such an entry. Every participant
// becomes a strict-PoA authority, so the list is rejected when an entry
// lacks a name or a seed, when a name appears twice (the second entry
// would put an address no daemon runs into the rotation, and the chain
// stalls at its turn), or when it names fewer than two participants.
func ParseParticipants(s string) ([]Participant, error) {
	var out []Participant
	seen := make(map[string]bool)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad participant %q (want name=seed@host:port)", part)
		}
		p := Participant{Name: name, Seed: rest}
		if at := strings.LastIndexByte(rest, '@'); at >= 0 {
			p.Seed, p.Addr = rest[:at], rest[at+1:]
		}
		switch {
		case p.Name == "" || p.Seed == "":
			return nil, fmt.Errorf("bad participant %q: empty name or seed", part)
		case seen[p.Name]:
			return nil, fmt.Errorf("participant %s appears twice", p.Name)
		}
		seen[p.Name] = true
		out = append(out, p)
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("need at least two participants, got %d", len(out))
	}
	return out, nil
}

// Authorities derives the strict-PoA authority set, in participant order:
// each participant's address from its name and seed, so separately
// started processes (and light clients) agree on it without exchanging
// keys.
func Authorities(ps []Participant) []identity.Address {
	out := make([]identity.Address, len(ps))
	for i, p := range ps {
		out[i] = identity.FromSeed(p.Name, p.Seed).Address()
	}
	return out
}

// Config is one daemon's deployment: the settings cmd/medshared takes as
// flags.
type Config struct {
	// Name is this daemon's participant name.
	Name string
	// Participants is every stakeholder, this one included; each is a
	// strict-PoA authority.
	Participants []Participant
	// Listen is the TCP address the data channel and gossip bind.
	Listen string
	// Network names the chain (the genesis seed).
	Network string
	// DataDir is the durable store's directory; empty runs in memory.
	DataDir string
	// BlockInterval is the node's idle retry; blocks are produced on
	// demand (node.Config).
	BlockInterval time.Duration
	// API is the HTTP edge's listen address; empty serves no API.
	API string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Daemon is one running stakeholder. The fields are its parts; Store is
// nil without a data dir and APIAddr empty without an API.
type Daemon struct {
	Identity  *identity.Identity
	Transport *p2p.TCPTransport
	Store     *store.Store
	Node      *node.Node
	DB        *reldb.Database
	Peer      *core.Peer
	// APIAddr is the address the HTTP edge is bound to.
	APIAddr string

	cancel context.CancelFunc
	http   *http.Server
}

// Open starts a daemon: the transport and directory, then the store, the
// node (which recovers from the store), the peer, and the HTTP edge. The
// local database starts empty; seed it before attaching shares. On error
// everything opened so far is closed again.
func Open(cfg Config) (*Daemon, error) {
	var me *Participant
	for i, p := range cfg.Participants {
		// Every participant is an authority whose turn the chain waits
		// for, so each needs an address its blocks and data travel to.
		if p.Addr == "" {
			return nil, fmt.Errorf("participant %s has no address", p.Name)
		}
		if p.Name == cfg.Name {
			me = &cfg.Participants[i]
		}
	}
	if me == nil {
		return nil, fmt.Errorf("participant %s is not among the participants", cfg.Name)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		Identity: identity.FromSeed(me.Name, me.Seed),
		DB:       reldb.NewDatabase(cfg.Name),
		cancel:   cancel,
	}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	var err error
	if d.Transport, err = p2p.NewTCPTransport(cfg.Name, cfg.Listen); err != nil {
		return nil, err
	}
	authorities := Authorities(cfg.Participants)
	dir := core.NewDirectory()
	for i, p := range cfg.Participants {
		dir.Set(authorities[i], p.Name)
		if p.Name != cfg.Name {
			d.Transport.AddPeer(p.Name, p.Addr)
		}
	}
	logf("%s listening on %s (address %s)", cfg.Name, d.Transport.Addr(), d.Identity.Address().Short())

	if cfg.DataDir != "" {
		if d.Store, err = store.Open(store.Options{Dir: cfg.DataDir}); err != nil {
			return nil, fmt.Errorf("open data dir %s: %w", cfg.DataDir, err)
		}
		switch stats := d.Store.Stats(); {
		case stats.CleanShutdown:
			logf("%s store %s: clean shutdown, checkpoint import (0 bytes replayed)", cfg.Name, cfg.DataDir)
		case stats.Commits == 0 && stats.TailBytes == 0:
			logf("%s store %s: new data dir", cfg.Name, cfg.DataDir)
		default:
			logf("%s store %s: recovering (%d blocks, %d tail bytes truncated, torn=%v)",
				cfg.Name, cfg.DataDir, len(d.Store.Blocks()), stats.TailBytes, stats.TornTail)
		}
	}

	if d.Node, err = node.New(node.Config{
		NetworkName:   cfg.Network,
		Identity:      d.Identity,
		Engine:        consensus.NewPoA(true, authorities...),
		Registry:      contract.NewRegistry(sharereg.New()),
		BlockInterval: cfg.BlockInterval,
		Transport:     d.Transport,
		Store:         d.Store,
	}); err != nil {
		return nil, err
	}
	d.Node.Start(ctx)

	if d.Peer, err = core.NewPeer(core.Config{
		Identity:       d.Identity,
		DB:             d.DB,
		Node:           d.Node,
		Transport:      d.Transport,
		Directory:      dir,
		Store:          d.Store,
		Logf:           cfg.Logf,
		ResyncInterval: resyncInterval,
	}); err != nil {
		return nil, err
	}
	d.Peer.Start()

	if cfg.API != "" {
		srv, err := api.New(api.Config{Peer: d.Peer, Node: d.Node, Store: d.Store})
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", cfg.API)
		if err != nil {
			return nil, fmt.Errorf("api listen: %w", err)
		}
		d.http = &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: apiReadHeaderTimeout,
			IdleTimeout:       apiIdleTimeout,
		}
		d.APIAddr = l.Addr().String()
		go func() {
			if err := d.http.Serve(l); err != nil && err != http.ErrServerClosed {
				logf("%s api: %v", cfg.Name, err)
			}
		}()
		logf("%s serving API on http://%s", cfg.Name, d.APIAddr)
	}
	ok = true
	return d, nil
}

// Close stops the daemon in the reverse of Open's order: the HTTP edge,
// the peer, the node (whose clean checkpoint must reach the store), the
// store, and the transport. It returns the store's close error.
func (d *Daemon) Close() error {
	if d.http != nil {
		d.http.Close()
	}
	if d.Peer != nil {
		d.Peer.Stop()
	}
	if d.Node != nil {
		d.Node.Stop()
	}
	d.cancel()
	var err error
	if d.Store != nil {
		err = d.Store.Close()
	}
	if d.Transport != nil {
		d.Transport.Close()
	}
	return err
}
