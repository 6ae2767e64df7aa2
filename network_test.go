package medshare

import (
	"context"
	"fmt"
	"time"

	"medshare/internal/consensus"
	"medshare/internal/contract"
	"medshare/internal/contract/sharereg"
	"medshare/internal/core"
	"medshare/internal/identity"
	"medshare/internal/node"
	"medshare/internal/p2p"
	"medshare/internal/p2p/faultnet"
	"medshare/internal/reldb"
	"medshare/internal/store"
)

// Data-channel transport names for NetworkConfig.
const (
	DataTransportMem = "mem"
	DataTransportTCP = "tcp"
)

// NetworkConfig describes an in-process test network: blockchain nodes
// (every one a strict-PoA authority) and peers attached to them over an
// in-memory or loopback data channel. Unlike a daemon, a node here may
// serve several peers, which lets the scenario and chaos tests share one
// chain between stakeholders; the Examples and TCP tests run one daemon
// per stakeholder instead.
type NetworkConfig struct {
	// Name seeds the genesis block. Defaults to "medshare".
	Name string
	// Nodes is the number of blockchain nodes (default 1).
	Nodes int
	// BlockInterval is every node's idle production retry (default
	// 5ms); blocks are produced on demand (node.Config).
	BlockInterval time.Duration
	// Seed derives the peers' identities and seeds the fault injection.
	Seed int64
	// PeerResyncInterval enables each peer's background anti-entropy
	// repair loop (recovery from missed notifications, missed finals, and
	// root mismatches). Zero disables it.
	PeerResyncInterval time.Duration
	// FaultInjection wraps every peer data endpoint in a faultnet.Fabric
	// (seeded with Seed) — the chaos suite's scriptable
	// drop/delay/partition/blackhole layer.
	FaultInjection bool
	// DataTransport selects the peer data channel: DataTransportMem
	// (default, in-memory) or DataTransportTCP (real loopback TCP).
	DataTransport string
	// PeerRPCTimeout, PeerRetry, and PeerHealth tune every peer's
	// data-channel resilience (per-attempt deadline, retry backoff,
	// endpoint quarantine). Zero values keep the core defaults.
	PeerRPCTimeout time.Duration
	PeerRetry      core.Backoff
	PeerHealth     core.HealthPolicy
	// DurablePeers gives every peer a durable replica store backed by an
	// in-memory filesystem — crash tests clone the filesystem (a
	// byte-exact kill -9 image) and restart the peer over it.
	DurablePeers bool
}

// Network is a running in-process test network.
type Network struct {
	cfg        NetworkConfig
	mem        *p2p.MemNetwork
	fab        *faultnet.Fabric
	nodes      []*node.Node
	dir        *core.Directory
	peers      []*core.Peer
	tcps       map[string]*p2p.TCPTransport
	peerFS     map[string]*store.MemFS
	peerStores map[string]*store.Store
	cancel     context.CancelFunc
}

// NewNetwork builds and starts an in-process network.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Name == "" {
		cfg.Name = "medshare"
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.BlockInterval <= 0 {
		cfg.BlockInterval = 5 * time.Millisecond
	}

	mem := p2p.NewMemNetwork()

	ids := make([]*identity.Identity, cfg.Nodes)
	addrs := make([]identity.Address, cfg.Nodes)
	for i := range ids {
		ids[i] = identity.MustNew(fmt.Sprintf("node-%d", i))
		addrs[i] = ids[i].Address()
	}

	nw := &Network{
		cfg: cfg, mem: mem, dir: core.NewDirectory(),
		tcps:       make(map[string]*p2p.TCPTransport),
		peerFS:     make(map[string]*store.MemFS),
		peerStores: make(map[string]*store.Store),
	}
	if cfg.FaultInjection {
		nw.fab = faultnet.New(cfg.Seed)
	}
	for i := 0; i < cfg.Nodes; i++ {
		var transport p2p.Transport
		if cfg.Nodes > 1 {
			transport = mem.Endpoint(fmt.Sprintf("node-%d", i))
		}
		n, err := node.New(node.Config{
			NetworkName:   cfg.Name,
			Identity:      ids[i],
			Engine:        consensus.NewPoA(true, addrs...),
			Registry:      contract.NewRegistry(sharereg.New()),
			BlockInterval: cfg.BlockInterval,
			Transport:     transport,
		})
		if err != nil {
			return nil, err
		}
		nw.nodes = append(nw.nodes, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	nw.cancel = cancel
	for _, n := range nw.nodes {
		n.Start(ctx)
	}
	return nw, nil
}

// Node returns the i-th blockchain node.
func (nw *Network) Node(i int) *node.Node { return nw.nodes[i] }

// Nodes returns the number of blockchain nodes.
func (nw *Network) Nodes() int { return len(nw.nodes) }

// PeerEndpoint returns the data-channel endpoint name of a peer created
// as name — the handle faultnet partitions and blackholes go by.
func (nw *Network) PeerEndpoint(name string) string { return "peer-" + name }

// PeerOptions tunes a peer beyond the network defaults.
type PeerOptions struct {
	// Identity, when non-nil, binds the peer to a specific identity.
	// Otherwise the identity derives from the peer's name and the
	// network's Name and Seed, so a peer started again under its name —
	// the restart path — presents the on-chain address its shares name.
	Identity *identity.Identity
	// Store, when non-nil, is the peer's durable replica store
	// (overrides the NetworkConfig.DurablePeers default).
	Store *store.Store
}

// NewPeer creates a stakeholder attached to the given node, with a fresh
// local database and a data-channel endpoint, and starts its event loop.
func (nw *Network) NewPeer(name string, nodeIndex int) (*core.Peer, error) {
	return nw.NewPeerWithOptions(name, nodeIndex, PeerOptions{})
}

// NewPeerWithOptions is NewPeer with explicit tuning.
func (nw *Network) NewPeerWithOptions(name string, nodeIndex int, opts PeerOptions) (*core.Peer, error) {
	if nodeIndex < 0 || nodeIndex >= len(nw.nodes) {
		return nil, fmt.Errorf("medshare: node index %d out of range", nodeIndex)
	}
	id := opts.Identity
	if id == nil {
		id = identity.FromSeed(name, fmt.Sprintf("%s/%d/%s", nw.cfg.Name, nw.cfg.Seed, name))
	}
	endpoint := nw.PeerEndpoint(name)
	var transport p2p.Transport
	switch nw.cfg.DataTransport {
	case "", DataTransportMem:
		transport = nw.mem.Endpoint(endpoint)
	case DataTransportTCP:
		tt, err := p2p.NewTCPTransport(endpoint, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		for other, ot := range nw.tcps {
			tt.AddPeer(other, ot.Addr())
			ot.AddPeer(endpoint, tt.Addr())
		}
		nw.tcps[endpoint] = tt
		transport = tt
	default:
		return nil, fmt.Errorf("medshare: unknown data transport %q", nw.cfg.DataTransport)
	}
	if nw.fab != nil {
		transport = nw.fab.Wrap(transport)
	}
	st := opts.Store
	if st == nil && nw.cfg.DurablePeers {
		fs := store.NewMemFS()
		var err error
		st, err = store.Open(store.Options{FS: fs})
		if err != nil {
			return nil, err
		}
		nw.peerFS[name] = fs
	}
	if st != nil {
		nw.peerStores[name] = st
	}
	p, err := core.NewPeer(core.Config{
		Identity:       id,
		DB:             reldb.NewDatabase(name),
		Node:           nw.nodes[nodeIndex],
		Transport:      transport,
		Directory:      nw.dir,
		ResyncInterval: nw.cfg.PeerResyncInterval,
		RPCTimeout:     nw.cfg.PeerRPCTimeout,
		Retry:          nw.cfg.PeerRetry,
		Health:         nw.cfg.PeerHealth,
		Store:          st,
	})
	if err != nil {
		return nil, err
	}
	p.Start()
	nw.peers = append(nw.peers, p)
	return p, nil
}

// Stop halts peers and nodes.
func (nw *Network) Stop() {
	for _, p := range nw.peers {
		p.Stop()
	}
	for _, tt := range nw.tcps {
		tt.Close()
	}
	nw.cancel()
	for _, n := range nw.nodes {
		n.Stop()
	}
	for _, st := range nw.peerStores {
		_ = st.Close()
	}
}
