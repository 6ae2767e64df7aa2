// Command medsharectl is the companion utility for cmd/medshared:
//
//	medsharectl keygen -name Doctor -seed s1
//	    print the deterministic address for a participant seed
//
//	medsharectl demo [-base-port 7001]
//	    print ready-to-run medshared command lines for the three-process
//	    Fig. 1 demo (Doctor, Patient, Researcher over TCP)
//
//	medsharectl gen -records 100 -out full.json
//	    write a synthetic full-records table (Fig. 1 schema) as JSON
//
//	medsharectl inspect -in table.json
//	    pretty-print a table JSON file
package main

import (
	"flag"
	"fmt"
	"os"

	"medshare/internal/identity"
	"medshare/internal/reldb"
	"medshare/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "keygen":
		err = keygen(os.Args[2:])
	case "demo":
		err = demo(os.Args[2:])
	case "gen":
		err = gen(os.Args[2:])
	case "inspect":
		err = inspect(os.Args[2:])
	case "register":
		err = register(os.Args[2:])
	case "attach":
		err = attach(os.Args[2:])
	case "fetch":
		err = fetch(os.Args[2:])
	case "update":
		err = update(os.Args[2:])
	case "audit":
		err = auditCmd(os.Args[2:])
	case "light":
		err = lightCmd(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "medsharectl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: medsharectl {keygen|demo|gen|inspect|register|attach|fetch|update|audit|light} [flags]")
}

func keygen(args []string) error {
	fs := flag.NewFlagSet("keygen", flag.ExitOnError)
	name := fs.String("name", "peer", "participant name")
	seed := fs.String("seed", "", "identity seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed == "" {
		return fmt.Errorf("-seed is required")
	}
	id := identity.FromSeed(*name, *seed)
	fmt.Printf("name:    %s\nseed:    %s\naddress: %s\n", *name, *seed, id.Address())
	return nil
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	basePort := fs.Int("base-port", 7001, "first TCP port")
	records := fs.Int("records", 0, "synthetic record count (0 = exact Fig. 1 rows)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	roles := []string{"Doctor", "Patient", "Researcher"}
	participants := ""
	for i, r := range roles {
		if i > 0 {
			participants += ","
		}
		participants += fmt.Sprintf("%s=seed-%s@127.0.0.1:%d", r, r, *basePort+i)
	}
	fmt.Println("# run each line in its own terminal:")
	for i, r := range roles {
		fmt.Printf("go run ./cmd/medshared -name %s -listen 127.0.0.1:%d -records %d -fig1 \\\n  -participants '%s'\n",
			r, *basePort+i, *records, participants)
		_ = i
	}
	fmt.Println(`#
# then:
#   Doctor>     register-fig1
#   Patient>    attach-fig1
#   Researcher> attach-fig1
#   Researcher> set D2 Ibuprofen mechanism_of_action MeA1-revised
#   Researcher> sync D2
#   Doctor>     show D3        # the revision arrived
#   Doctor>     set D3 188 dosage "two-tablets"   (quotes not supported; use dashes)
#   Doctor>     sync D3
#   Patient>    show D1        # the dosage arrived`)
	return nil
}

func gen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	records := fs.Int("records", 100, "record count")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "full.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tbl := workload.Generate("full", *records, *seed)
	raw, err := reldb.MarshalTable(tbl)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", *records, *out)
	return nil
}

func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "table JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	tbl, err := reldb.UnmarshalTable(raw)
	if err != nil {
		return err
	}
	fmt.Print(reldb.Format(tbl))
	return nil
}
