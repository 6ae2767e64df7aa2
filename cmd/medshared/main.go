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
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"medshare/internal/core"
	"medshare/internal/daemon"
	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

func main() {
	var (
		name     = flag.String("name", "", "this participant's name (must appear in -participants)")
		listen   = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		parts    = flag.String("participants", "", "all participants as name=seed@host:port, comma separated")
		network  = flag.String("network", "medshare-demo", "network name (genesis seed)")
		blockMs  = flag.Int("block-ms", 200, "idle block-production retry in milliseconds (blocks are produced on demand)")
		fig1     = flag.Bool("fig1", false, "preload this role's Fig. 1 table (Doctor/Patient/Researcher)")
		records  = flag.Int("records", 0, "synthetic records for -fig1 (0 = the exact Fig. 1 rows)")
		seedFlag = flag.Int64("seed", 1, "workload seed for -fig1")
		apiAddr  = flag.String("api", "", "serve the HTTP API on this address (empty = no API)")
		dataDir  = flag.String("data-dir", "", "durable store directory (empty = in-memory only)")
	)
	flag.Parse()
	if *name == "" || *parts == "" {
		flag.Usage()
		os.Exit(2)
	}
	participants, err := daemon.ParseParticipants(*parts)
	if err == nil {
		err = run(daemon.Config{
			Name:          *name,
			Participants:  participants,
			Listen:        *listen,
			Network:       *network,
			DataDir:       *dataDir,
			BlockInterval: time.Duration(*blockMs) * time.Millisecond,
			API:           *apiAddr,
			Logf: func(format string, args ...any) {
				fmt.Printf("  "+format+"\n", args...)
			},
		}, *fig1, *records, *seedFlag)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "medshared:", err)
		os.Exit(1)
	}
}

func run(cfg daemon.Config, fig1 bool, records int, seed int64) (err error) {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer cancel()
	d, err := daemon.Open(cfg)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, d.Close()) }()
	if fig1 {
		full := workload.Fig1Data("full")
		if records > 0 {
			full = workload.Generate("full", records, seed)
		}
		t, err := workload.RoleTable(full, cfg.Name)
		if err != nil {
			return fmt.Errorf("-fig1: %w", err)
		}
		d.DB.PutTable(t)
	}
	sh := &shell{Daemon: d, name: cfg.Name, addr: make(map[string]identity.Address)}
	for i, a := range daemon.Authorities(cfg.Participants) {
		sh.addr[cfg.Participants[i].Name] = a
	}

	// The shell blocks on stdin, which cannot be interrupted portably; run
	// it in a goroutine and race it against SIGTERM/SIGINT so a signal
	// still unwinds into Close (peer, node checkpoint, store).
	done := make(chan error, 1)
	go func() { done <- sh.run(ctx) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		fmt.Printf("\n%s: signal received, shutting down\n", cfg.Name)
		return nil
	}
}

// shell is the interactive command loop over one daemon; addr names
// every participant's address.
type shell struct {
	*daemon.Daemon
	name string
	addr map[string]identity.Address
}

func (sh *shell) run(ctx context.Context) error {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println(`type "help" for commands`)
	for {
		fmt.Printf("%s> ", sh.name)
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
		if err := sh.execute(ctx, fields); err != nil {
			fmt.Println("error:", err)
		}
	}
}

func (sh *shell) execute(ctx context.Context, args []string) error {
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
		for _, t := range sh.DB.TableNames() {
			fmt.Println(" ", t)
		}
		return nil
	case "show":
		if len(args) != 2 {
			return fmt.Errorf("usage: show <table>")
		}
		t, err := sh.DB.Table(args[1])
		if err != nil {
			return err
		}
		fmt.Print(reldb.Format(t))
		return nil
	case "set":
		if len(args) != 5 {
			return fmt.Errorf("usage: set <table> <key> <col> <value>")
		}
		return sh.DB.WithTable(args[1], func(t *reldb.Table) error {
			key, err := reldb.ParseKey(args[2], t.Schema())
			if err != nil {
				return err
			}
			return t.Update(key, map[string]reldb.Value{args[3]: reldb.S(args[4])})
		})
	case "sync":
		if len(args) != 2 {
			return fmt.Errorf("usage: sync <table>")
		}
		props, err := sh.Peer.SyncShares(opCtx, args[1])
		if err != nil {
			return err
		}
		if len(props) == 0 {
			fmt.Println("  no shares affected")
		}
		for _, pr := range props {
			fmt.Printf("  proposed %s seq %d (cols %v); waiting for peers...\n", pr.ShareID, pr.Seq, pr.Cols)
			if err := sh.Peer.WaitFinal(opCtx, pr.ShareID, pr.Seq); err != nil {
				return err
			}
			fmt.Printf("  finalized %s seq %d\n", pr.ShareID, pr.Seq)
		}
		return nil
	case "shares":
		ids := sh.Peer.Shares()
		sort.Strings(ids)
		for _, id := range ids {
			info, err := sh.Peer.ShareInfo(id)
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
		m, err := sh.Peer.Meta(args[1])
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
		for _, h := range sh.Peer.History() {
			fmt.Printf("  %s %-10s %-12s seq %d cols %v %s\n",
				h.Time.Format("15:04:05.000"), h.Kind, h.ShareID, h.Seq, h.Cols, h.Note)
		}
		return nil
	case "chain":
		head := sh.Node.Store().Head()
		fmt.Printf("  height %d, head %s, mempool %d\n",
			head.Header.Height, head.HashString()[:12], sh.Node.PendingTxs())
		return nil
	case "resync":
		return sh.Peer.Resync(opCtx)
	case "register-fig1":
		return sh.registerFig1(opCtx)
	case "attach-fig1":
		return sh.attachFig1(opCtx)
	default:
		return fmt.Errorf("unknown command %q (try help)", args[0])
	}
}

// registerFig1 registers both paper shares from the Doctor role.
func (sh *shell) registerFig1(ctx context.Context) error {
	if sh.name != "Doctor" {
		return fmt.Errorf("register-fig1 runs on the Doctor")
	}
	doctor, patient, researcher := sh.addr["Doctor"], sh.addr["Patient"], sh.addr["Researcher"]
	err := sh.Peer.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          workload.ShareIDD13,
		SourceTable: "D3",
		Lens:        workload.LensD31(),
		ViewName:    "D31",
		Peers:       []identity.Address{patient, doctor},
		WritePerm:   workload.PermD13(patient, doctor),
		Authority:   doctor,
	})
	if err != nil {
		return err
	}
	return sh.Peer.RegisterShare(ctx, core.RegisterShareArgs{
		ID:          workload.ShareIDD23,
		SourceTable: "D3",
		Lens:        workload.LensD32(),
		ViewName:    "D32",
		Peers:       []identity.Address{researcher, doctor},
		WritePerm:   workload.PermD23(doctor, researcher),
		Authority:   researcher,
	})
}

// attachFig1 binds the local side of the paper share for this role.
func (sh *shell) attachFig1(ctx context.Context) error {
	switch sh.name {
	case "Patient":
		if _, err := sh.Peer.WaitForShare(ctx, workload.ShareIDD13); err != nil {
			return err
		}
		return sh.Peer.AttachShare(workload.ShareIDD13, "D1", workload.LensD13(), "D13")
	case "Researcher":
		if _, err := sh.Peer.WaitForShare(ctx, workload.ShareIDD23); err != nil {
			return err
		}
		return sh.Peer.AttachShare(workload.ShareIDD23, "D2", workload.LensD23(), "D23")
	default:
		return fmt.Errorf("attach-fig1 runs on Patient or Researcher")
	}
}
