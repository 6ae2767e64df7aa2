// Command medshared runs one stakeholder of the medshare architecture as
// a real process: a blockchain node plus a data-sharing peer, both on a
// TCP transport, driven by a small interactive shell on stdin.
//
// Every participant derives its identity deterministically from a seed so
// that separately started processes agree on addresses and on the PoA
// authority set. A three-terminal Fig. 1 demo:
//
//	medshared -name Doctor     -listen 127.0.0.1:7001 \
//	  -participants 'Doctor=s1@127.0.0.1:7001,Patient=s2@127.0.0.1:7002,Researcher=s3@127.0.0.1:7003' -fig1
//	medshared -name Patient    -listen 127.0.0.1:7002 -participants '...' -fig1
//	medshared -name Researcher -listen 127.0.0.1:7003 -participants '...' -fig1
//
// then in the Doctor shell: `register-fig1`, in the others `attach-fig1`,
// and update away (`set`, `sync`, `show`, `history`). Use
// `medsharectl demo` to generate ready-made command lines.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
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
	"medshare/internal/workload"
)

// HTTP API connection bounds: a client that trickles its request headers
// or parks an idle keep-alive connection loses it after these, so it
// cannot hold a connection and a goroutine forever.
const (
	apiReadHeaderTimeout = 10 * time.Second
	apiIdleTimeout       = 2 * time.Minute
)

// participant is one configured stakeholder: name, identity seed, and
// TCP address.
type participant struct {
	name string
	seed string
	addr string
}

func parseParticipants(s string) ([]participant, error) {
	var out []participant
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		at := strings.LastIndexByte(part, '@')
		if eq < 0 || at < eq {
			return nil, fmt.Errorf("bad participant %q (want name=seed@host:port)", part)
		}
		out = append(out, participant{
			name: part[:eq],
			seed: part[eq+1 : at],
			addr: part[at+1:],
		})
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("need at least two participants")
	}
	return out, nil
}

func main() {
	var (
		name     = flag.String("name", "", "this participant's name (must appear in -participants)")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		parts    = flag.String("participants", "", "all participants as name=seed@host:port, comma separated")
		network  = flag.String("network", "medshare-demo", "network name (genesis seed)")
		blockMs  = flag.Int("block-ms", 200, "block interval in milliseconds")
		fig1     = flag.Bool("fig1", false, "preload this role's Fig. 1 table (Doctor/Patient/Researcher)")
		records  = flag.Int("records", 0, "synthetic records for -fig1 (0 = the exact Fig. 1 rows)")
		seedFlag = flag.Int64("seed", 1, "workload seed for -fig1")
		apiAddr  = flag.String("api", "", "serve the HTTP API on this address (empty = no API)")
		groupMs  = flag.Int("group-commit-ms", 0, "group-commit window in milliseconds (0 = per-interval blocks)")
		dataDir  = flag.String("data-dir", "", "durable store directory (empty = in-memory only)")
	)
	flag.Parse()
	if *name == "" || *parts == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, *listen, *parts, *network, *blockMs, *fig1, *records, *seedFlag, *apiAddr, *groupMs, *dataDir); err != nil {
		fmt.Fprintln(os.Stderr, "medshared:", err)
		os.Exit(1)
	}
}

func run(name, listen, parts, network string, blockMs int, fig1 bool, records int, seed int64, apiAddr string, groupMs int, dataDir string) error {
	participants, err := parseParticipants(parts)
	if err != nil {
		return err
	}
	var me *participant
	for i := range participants {
		if participants[i].name == name {
			me = &participants[i]
		}
	}
	if me == nil {
		return fmt.Errorf("participant %s not in -participants", name)
	}

	// Deterministic identities: every process derives the same addresses.
	ids := make(map[string]*identity.Identity, len(participants))
	var authorities []identity.Address
	dir := core.NewDirectory()
	for _, p := range participants {
		id := identity.FromSeed(p.name, p.seed)
		ids[p.name] = id
		authorities = append(authorities, id.Address())
		dir.Set(id.Address(), p.name)
	}

	transport, err := p2p.NewTCPTransport(name, listen)
	if err != nil {
		return err
	}
	defer transport.Close()
	for _, p := range participants {
		if p.name != name {
			transport.AddPeer(p.name, p.addr)
		}
	}
	fmt.Printf("%s listening on %s (address %s)\n", name, transport.Addr(), ids[name].Address().Short())

	// Durable store: opened before the node (node.New recovers from it) and
	// closed after node.Stop (deferred earlier => runs later), so the clean
	// checkpoint written on shutdown always reaches the log before Close.
	var st *store.Store
	if dataDir != "" {
		st, err = store.Open(store.Options{Dir: dataDir})
		if err != nil {
			return fmt.Errorf("open data dir %s: %w", dataDir, err)
		}
		defer st.Close()
		stats := st.Stats()
		if stats.CleanShutdown {
			fmt.Printf("%s store %s: clean shutdown, checkpoint import (0 bytes replayed)\n", name, dataDir)
		} else {
			fmt.Printf("%s store %s: recovering (%d blocks, %d tail bytes truncated, torn=%v)\n",
				name, dataDir, len(st.Blocks()), stats.TailBytes, stats.TornTail)
		}
	}

	n, err := node.New(node.Config{
		NetworkName:       network,
		Identity:          ids[name],
		Engine:            consensus.NewPoA(true, authorities...),
		Registry:          contract.NewRegistry(sharereg.New()),
		BlockInterval:     time.Duration(blockMs) * time.Millisecond,
		GroupCommitWindow: time.Duration(groupMs) * time.Millisecond,
		Transport:         transport,
		Store:             st,
	})
	if err != nil {
		return err
	}
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()
	n.Start(ctx)
	defer n.Stop()

	db := reldb.NewDatabase(name)
	if fig1 {
		if err := loadFig1(db, name, records, seed); err != nil {
			return err
		}
	}
	peer, err := core.NewPeer(core.Config{
		Identity:  ids[name],
		DB:        db,
		Node:      n,
		Transport: transport,
		Directory: dir,
		Store:     st,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	peer.Start()
	defer peer.Stop()

	if apiAddr != "" {
		srv, err := api.New(api.Config{
			Peer:           peer,
			Node:           n,
			CoalesceWindow: time.Duration(groupMs) * time.Millisecond,
			Store:          st,
		})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", apiAddr)
		if err != nil {
			return fmt.Errorf("api listen: %w", err)
		}
		hs := &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: apiReadHeaderTimeout,
			IdleTimeout:       apiIdleTimeout,
		}
		go func() {
			if err := hs.Serve(l); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "medshared: api:", err)
			}
		}()
		defer hs.Close()
		fmt.Printf("%s serving API on http://%s\n", name, l.Addr())
	}

	// The shell blocks on stdin, which cannot be interrupted portably; run
	// it in a goroutine and race it against SIGTERM/SIGINT so a signal
	// still unwinds the defers (peer.Stop, n.Stop checkpoint, store close).
	done := make(chan error, 1)
	go func() { done <- shell(ctx, &daemon{name: name, ids: ids, node: n, peer: peer, db: db}) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		fmt.Printf("\n%s: signal received, shutting down\n", name)
		return nil
	}
}

// loadFig1 installs the role's Fig. 1 slice.
func loadFig1(db *reldb.Database, role string, records int, seed int64) error {
	var full *reldb.Table
	if records <= 0 {
		full = workload.Fig1Data("full")
	} else {
		full = workload.Generate("full", records, seed)
	}
	switch role {
	case "Patient":
		t, err := full.Project("D1", workload.PatientCols, nil)
		if err != nil {
			return err
		}
		db.PutTable(t)
	case "Researcher":
		t, err := full.Project("D2", workload.ResearcherCols, []string{workload.ColMedication})
		if err != nil {
			return err
		}
		db.PutTable(t)
	case "Doctor":
		t, err := full.Project("D3", workload.DoctorCols, nil)
		if err != nil {
			return err
		}
		db.PutTable(t)
	default:
		return fmt.Errorf("-fig1 supports roles Doctor, Patient, Researcher (got %s)", role)
	}
	return nil
}

// daemon bundles the running pieces for the shell.
type daemon struct {
	name string
	ids  map[string]*identity.Identity
	node *node.Node
	peer *core.Peer
	db   *reldb.Database
}

// shell is the interactive command loop.
func shell(ctx context.Context, d *daemon) error {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println(`type "help" for commands`)
	for {
		fmt.Printf("%s> ", d.name)
		if !sc.Scan() {
			return sc.Err()
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if fields[0] == "quit" || fields[0] == "exit" {
			return nil
		}
		if err := d.execute(ctx, fields); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func (d *daemon) execute(ctx context.Context, args []string) error {
	opCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	switch args[0] {
	case "help":
		fmt.Print(`commands:
  tables                         list local tables
  show <table>                   print a table
  set <table> <key> <col> <val>  update one field locally
  sync <table>                   propagate local changes to all shares
  shares                         list bound shares
  meta <share>                   print on-chain metadata
  history                        locally observed share events
  chain                          chain status
  resync                         reconcile all shares against the chain
  register-fig1                  (Doctor) register D13&D31 and D23&D32
  attach-fig1                    (Patient/Researcher) attach your share
  quit
`)
		return nil
	case "tables":
		for _, t := range d.db.TableNames() {
			fmt.Println(" ", t)
		}
		return nil
	case "show":
		if len(args) != 2 {
			return fmt.Errorf("usage: show <table>")
		}
		t, err := d.db.Table(args[1])
		if err != nil {
			return err
		}
		fmt.Print(reldb.Format(t))
		return nil
	case "set":
		if len(args) != 5 {
			return fmt.Errorf("usage: set <table> <key> <col> <value>")
		}
		return d.db.WithTable(args[1], func(t *reldb.Table) error {
			return t.Update(parseKey(args[2]), map[string]reldb.Value{args[3]: reldb.S(args[4])})
		})
	case "sync":
		if len(args) != 2 {
			return fmt.Errorf("usage: sync <table>")
		}
		props, err := d.peer.SyncShares(opCtx, args[1])
		if err != nil {
			return err
		}
		if len(props) == 0 {
			fmt.Println("  no shares affected")
		}
		for _, pr := range props {
			fmt.Printf("  proposed %s seq %d (cols %v); waiting for peers...\n", pr.ShareID, pr.Seq, pr.Cols)
			if err := d.peer.WaitFinal(opCtx, pr.ShareID, pr.Seq); err != nil {
				return err
			}
			fmt.Printf("  finalized %s seq %d\n", pr.ShareID, pr.Seq)
		}
		return nil
	case "shares":
		ids := d.peer.Shares()
		sort.Strings(ids)
		for _, id := range ids {
			info, err := d.peer.ShareInfo(id)
			if err != nil {
				continue
			}
			fmt.Printf("  %s: source %s, view %s, applied seq %d\n", id, info.SourceTable, info.ViewName, info.AppliedSeq)
		}
		return nil
	case "meta":
		if len(args) != 2 {
			return fmt.Errorf("usage: meta <share>")
		}
		m, err := d.peer.Meta(args[1])
		if err != nil {
			return err
		}
		fmt.Printf("  peers: %v\n  authority: %s\n  seq: %d\n  updated: %s\n",
			m.Peers, m.Authority, m.Seq, time.UnixMicro(m.UpdatedAtMicro).Format(time.RFC3339))
		cols := make([]string, 0, len(m.WritePerm))
		for c := range m.WritePerm {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			fmt.Printf("  write %-22s %v\n", c, m.WritePerm[c])
		}
		if m.Pending != nil {
			fmt.Printf("  PENDING seq %d from %s (cols %v)\n", m.Pending.Seq, m.Pending.From, m.Pending.Cols)
		}
		return nil
	case "history":
		for _, h := range d.peer.History() {
			fmt.Printf("  %s %-10s %-12s seq %d cols %v %s\n",
				h.Time.Format("15:04:05.000"), h.Kind, h.ShareID, h.Seq, h.Cols, h.Note)
		}
		return nil
	case "chain":
		head := d.node.Store().Head()
		fmt.Printf("  height %d, head %s, mempool %d\n",
			head.Header.Height, head.HashString()[:12], d.node.PendingTxs())
		return nil
	case "resync":
		return d.peer.Resync(opCtx)
	case "register-fig1":
		return d.registerFig1(opCtx)
	case "attach-fig1":
		return d.attachFig1(opCtx)
	default:
		return fmt.Errorf("unknown command %q (try help)", args[0])
	}
}

// registerFig1 registers both paper shares from the Doctor role.
func (d *daemon) registerFig1(ctx context.Context) error {
	if d.name != "Doctor" {
		return fmt.Errorf("register-fig1 runs on the Doctor")
	}
	doctor := d.ids["Doctor"].Address()
	patient := d.ids["Patient"].Address()
	researcher := d.ids["Researcher"].Address()
	err := d.peer.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          "D13&D31",
		SourceTable: "D3",
		Lens:        bx.Project("D31", workload.ShareD13Cols, nil),
		ViewName:    "D31",
		Peers:       []identity.Address{patient, doctor},
		WritePerm: map[string][]identity.Address{
			workload.ColPatientID:  {doctor},
			workload.ColMedication: {doctor},
			workload.ColDosage:     {doctor},
			workload.ColClinical:   {patient, doctor},
		},
		Authority: doctor,
	})
	if err != nil {
		return err
	}
	return d.peer.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          "D23&D32",
		SourceTable: "D3",
		Lens:        bx.Project("D32", workload.ShareD23Cols, []string{workload.ColMedication}),
		ViewName:    "D32",
		Peers:       []identity.Address{researcher, doctor},
		WritePerm: map[string][]identity.Address{
			workload.ColMedication: {doctor, researcher},
			workload.ColMechanism:  {researcher},
		},
		Authority: researcher,
	})
}

// attachFig1 binds the local side of the paper share for this role.
func (d *daemon) attachFig1(ctx context.Context) error {
	switch d.name {
	case "Patient":
		if _, err := d.peer.WaitForShare(ctx, "D13&D31"); err != nil {
			return err
		}
		return d.peer.AttachShare("D13&D31", "D1",
			bx.Project("D13", workload.ShareD13Cols, nil).
				WithDelete(bx.PolicyApply).
				WithInsert(bx.PolicyApply, map[string]reldb.Value{workload.ColAddress: reldb.S("unknown")}),
			"D13")
	case "Researcher":
		if _, err := d.peer.WaitForShare(ctx, "D23&D32"); err != nil {
			return err
		}
		return d.peer.AttachShare("D23&D32", "D2",
			bx.Project("D23", workload.ShareD23Cols, []string{workload.ColMedication}).
				WithDelete(bx.PolicyApply).
				WithInsert(bx.PolicyApply, map[string]reldb.Value{workload.ColMode: reldb.S("MoA-pending")}),
			"D23")
	default:
		return fmt.Errorf("attach-fig1 runs on Patient or Researcher")
	}
}

// parseKey interprets a shell key argument as an int when possible.
func parseKey(s string) reldb.Row {
	var i int64
	if _, err := fmt.Sscanf(s, "%d", &i); err == nil && fmt.Sprint(i) == s {
		return reldb.Row{reldb.I(i)}
	}
	return reldb.Row{reldb.S(s)}
}
