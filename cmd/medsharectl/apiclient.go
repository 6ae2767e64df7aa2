package main

// The API subcommands drive a medshared process's serving edge
// (medshared -api host:port) end to end:
//
//	medsharectl register -api http://127.0.0.1:8344 -id S -source T -view V \
//	    -cols k,v -peers addr1,addr2 [-writers col=addr1+addr2,...]
//	medsharectl attach   -api ... -id S -source T -view V [-cols k,v]
//	medsharectl fetch    -api ... -id S [-key 3 [-proof]]
//	medsharectl update   -api ... -id S -key 3 -set col=val[,col=val]
//	medsharectl update   -api ... -id S -delete -key 3
//	medsharectl audit    -api ... -id S

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"time"

	"medshare/internal/api"
	"medshare/internal/bx"
	"medshare/internal/reldb"
)

func apiFlags(fs *flag.FlagSet) (addr, id *string) {
	addr = fs.String("api", "http://127.0.0.1:8344", "API base URL of a medshared -api process")
	id = fs.String("id", "", "share ID")
	return
}

func apiClient(addr string) (*api.Client, context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	return &api.Client{BaseURL: addr}, ctx, cancel
}

func projectSpec(view, cols string) (json.RawMessage, error) {
	if cols == "" {
		return nil, nil
	}
	return bx.Spec{
		Op:       bx.OpProject,
		ViewName: view,
		Cols:     strings.Split(cols, ","),
		OnDelete: bx.PolicyApply,
		OnInsert: bx.PolicyApply,
	}.Marshal()
}

func register(args []string) error {
	fs := flag.NewFlagSet("register", flag.ExitOnError)
	addr, id := apiFlags(fs)
	source := fs.String("source", "", "local source table")
	view := fs.String("view", "", "local view name")
	cols := fs.String("cols", "", "shared columns, comma separated (project lens)")
	peers := fs.String("peers", "", "all sharing peers' hex addresses, comma separated")
	writers := fs.String("writers", "", "write permissions as col=addr+addr,... (default: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *source == "" || *view == "" || *cols == "" || *peers == "" {
		return fmt.Errorf("-id, -source, -view, -cols and -peers are required")
	}
	spec, err := projectSpec(*view, *cols)
	if err != nil {
		return err
	}
	req := api.RegisterRequest{
		ID:          *id,
		SourceTable: *source,
		ViewName:    *view,
		LensSpec:    spec,
		Peers:       strings.Split(*peers, ","),
	}
	if *writers != "" {
		req.WritePerm = map[string][]string{}
		for _, ent := range strings.Split(*writers, ",") {
			col, addrs, ok := strings.Cut(ent, "=")
			if !ok {
				return fmt.Errorf("bad -writers entry %q (want col=addr+addr)", ent)
			}
			req.WritePerm[col] = strings.Split(addrs, "+")
		}
	}
	c, ctx, cancel := apiClient(*addr)
	defer cancel()
	st, err := c.Register(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("registered %s (view %s, chain seq %d)\n", st.ID, st.ViewName, st.ChainSeq)
	return nil
}

func attach(args []string) error {
	fs := flag.NewFlagSet("attach", flag.ExitOnError)
	addr, id := apiFlags(fs)
	source := fs.String("source", "", "local source table")
	view := fs.String("view", "", "local view name")
	cols := fs.String("cols", "", "shared columns (empty = reuse the on-chain lens spec)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *source == "" || *view == "" {
		return fmt.Errorf("-id, -source and -view are required")
	}
	spec, err := projectSpec(*view, *cols)
	if err != nil {
		return err
	}
	c, ctx, cancel := apiClient(*addr)
	defer cancel()
	st, err := c.Attach(ctx, *id, api.AttachRequest{SourceTable: *source, ViewName: *view, LensSpec: spec})
	if err != nil {
		return err
	}
	fmt.Printf("attached %s (view %s, applied seq %d)\n", st.ID, st.ViewName, st.AppliedSeq)
	return nil
}

func fetch(args []string) error {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	addr, id := apiFlags(fs)
	key := fs.String("key", "", "fetch one row by key (comma-separated tuple); empty = whole view")
	proof := fs.Bool("proof", false, "request and verify a Merkle membership proof")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	c, ctx, cancel := apiClient(*addr)
	defer cancel()
	if *key == "" {
		view, err := c.Rows(ctx, *id)
		if err != nil {
			return err
		}
		fmt.Print(reldb.Format(view))
		return nil
	}
	res, err := c.Row(ctx, *id, strings.Split(*key, ","), *proof)
	if err != nil {
		return err
	}
	for i, v := range res.Row {
		if i > 0 {
			fmt.Print(" | ")
		}
		fmt.Print(v.String())
	}
	fmt.Printf("\n(seq %d)\n", res.Seq)
	if *proof {
		ok, err := api.VerifyRow(res)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("membership proof FAILED against root %s", res.Root)
		}
		fmt.Printf("proof verified against root %s\n", res.Root)
	}
	return nil
}

func update(args []string) error {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	addr, id := apiFlags(fs)
	key := fs.String("key", "", "row key (comma-separated tuple)")
	set := fs.String("set", "", "column updates as col=val[,col=val] (values as text, typed by the view's schema)")
	del := fs.Bool("delete", false, "delete the row instead of updating it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *key == "" {
		return fmt.Errorf("-id and -key are required")
	}
	// Key parts and values go as text; the server types them by the
	// view's schema.
	var keyVals []any
	for _, p := range strings.Split(*key, ",") {
		keyVals = append(keyVals, p)
	}
	var op api.RowOp
	switch {
	case *del:
		op = api.RowOp{Op: "delete", Key: keyVals}
	case *set != "":
		op = api.RowOp{Op: "set", Key: keyVals, Set: map[string]any{}}
		for _, ent := range strings.Split(*set, ",") {
			col, val, ok := strings.Cut(ent, "=")
			if !ok {
				return fmt.Errorf("bad -set entry %q (want col=val)", ent)
			}
			op.Set[col] = val
		}
	default:
		return fmt.Errorf("one of -set or -delete is required")
	}
	c, ctx, cancel := apiClient(*addr)
	defer cancel()
	res, err := c.Update(ctx, *id, []api.RowOp{op})
	if err != nil {
		return err
	}
	if res.NoChange {
		fmt.Println("no change")
		return nil
	}
	fmt.Printf("finalizing as seq %d (cols %v)\n", res.Seq, res.Cols)
	return nil
}

func auditCmd(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	addr, id := apiFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	c, ctx, cancel := apiClient(*addr)
	defer cancel()
	recs, err := c.Audit(ctx, *id)
	if err != nil {
		return err
	}
	for _, r := range recs {
		status := "ok"
		if !r.OK {
			status = "DENIED: " + r.Err
		}
		fmt.Printf("h%-4d %s %-16s seq %-3d from %s cols %v %s\n",
			r.Height, r.Time.Format("15:04:05"), r.Fn, r.Seq, r.From[:12], r.Cols, status)
	}
	return nil
}
