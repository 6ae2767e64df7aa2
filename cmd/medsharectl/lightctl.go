package main

// The trust-minimized subcommand:
//
//	medsharectl light -api ... -network medshare-demo \
//	    -participants 'Doctor=s1@...,Patient=s2@...,Researcher=s3@...' \
//	    -id S -key 188
//	    run a real light client over the HTTP serving edge: derive the
//	    PoA authority set locally from the participant seeds, sync and
//	    verify the header chain from the locally computed genesis, then
//	    proof-verify the row against a header — nothing the server says
//	    is trusted unverified; prints the row and the height it was
//	    verified at, and exits non-zero on any verification failure

import (
	"context"
	"flag"
	"fmt"
	"strings"
	"time"

	"medshare/internal/api"
	"medshare/internal/consensus"
	"medshare/internal/daemon"
	"medshare/internal/light"
	"medshare/internal/reldb"
)

// parseKeyTuple converts a comma-separated key into a typed row with
// the shell convention: integer-looking parts become ints, everything
// else strings. (Typed keys matter to a light client: the proven row's
// key columns are compared byte-for-byte against the request.)
func parseKeyTuple(raw string) reldb.Row {
	parts := strings.Split(raw, ",")
	key := make(reldb.Row, len(parts))
	for i, p := range parts {
		var n int64
		if _, err := fmt.Sscanf(p, "%d", &n); err == nil && fmt.Sprint(n) == p {
			key[i] = reldb.I(n)
		} else {
			key[i] = reldb.S(p)
		}
	}
	return key
}

func lightCmd(args []string) error {
	fs := flag.NewFlagSet("light", flag.ExitOnError)
	addr, id := apiFlags(fs)
	key := fs.String("key", "", "row key (comma-separated tuple)")
	network := fs.String("network", "medshare-demo", "network name (genesis seed; must match the daemons)")
	parts := fs.String("participants", "", "all participants as name=seed[@host:port], comma separated, in daemon order (PoA authority set)")
	timeout := fs.Duration("timeout", 60*time.Second, "overall deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *key == "" || *parts == "" {
		return fmt.Errorf("-id, -key and -participants are required")
	}
	// The authority set is derived locally from the participant seeds —
	// the strict round-robin PoA verifier is the trust root, the server
	// only supplies data. Order must match the daemons'.
	participants, err := daemon.ParseParticipants(*parts)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client, err := light.New(light.Config{
		Network: *network,
		Verify:  consensus.NewPoA(true, daemon.Authorities(participants)...).VerifyHeader,
		Source:  &api.LightSource{BaseURL: *addr},
	})
	if err != nil {
		return err
	}
	client.Subscribe(*id)
	if _, err := client.SyncHeaders(ctx); err != nil {
		return fmt.Errorf("header sync: %w", err)
	}
	row, err := client.Read(ctx, *id, parseKeyTuple(*key))
	if err != nil {
		return fmt.Errorf("verified read: %w", err)
	}
	for i, v := range row {
		if i > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(v.String())
	}
	fmt.Println()
	seq, height := client.Proven(*id)
	st := client.Stats()
	fmt.Printf("verified at height %d (share seq %d): %d header(s) + share head + row proof, %d wire bytes, %d bytes retained\n",
		height, seq, st.Height+1, st.WireBytes, client.StateBytes())
	if st.VerifyFailures != 0 {
		return fmt.Errorf("light client recorded %d verification failures", st.VerifyFailures)
	}
	return nil
}
