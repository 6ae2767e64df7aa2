package medshare

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// binaries are the programs this repository ships or runs: the daemon,
// its CLI and the benchmark. Production code is what one of them links;
// the Examples in this package are tests, and link nothing into it.
var binaries = []string{
	"./cmd/medshared",
	"./cmd/medsharectl",
	"./bench",
}

// linkAllowlist names the non-test functions no binary links that may
// stay where they are, each with its reason. A key is a package
// directory (every function in it), a file, or a function as
// "dir.Func" / "dir.Type.Method".
var linkAllowlist = map[string]string{
	"internal/p2p/faultnet":     "test support: the fault-injecting transport core's and the root package's tests share",
	"internal/p2p/memnet.go":    "test support: the in-process transport the node, core, faultnet and root tests run on; in a subpackage it would import p2p, and p2p's own tests use it",
	"internal/store/faultfs.go": "test support: FaultFS; in a subpackage it would import store, and store's own tests use it",
	"internal/store/memfs.go":   "test support: MemFS, OpenMemory and the crash image (MemFS.Clone) a restart test reopens, in every package that restarts a peer; FaultFS materializes survivors into it",

	"internal/identity.MustNew":            "test support: identities for tests in every package",
	"internal/node.Node.BuildTx":           "test support: signed transactions for the node, audit and api tests",
	"internal/reldb.Table.Value":           "test support: one cell by key and column, for tests in other packages",
	"internal/reldb.Value.Str":             "test support: typed cell access for tests in other packages",
	"internal/reldb.Value.Int":             "test support: typed cell access for tests in other packages",
	"internal/reldb.Value.Float":           "test support: typed cell access for tests in other packages",
	"internal/reldb.Value.Bool":            "test support: typed cell access for tests in other packages",
	"internal/reldb.Value.Time":            "test support: typed cell access for tests in other packages",
	"internal/core.Peer.TransferAuthority": "governance operation no binary exposes yet (ROADMAP item 15)",
	"internal/core.Peer.RemoveShare":       "governance operation no binary exposes yet (ROADMAP item 15)",

	"bench.tracedTransport.Send": "changes only with the benchmark: the traced transport forwards every Transport method",
}

// TestProductionCodeIsLinked builds every binary with inlining off and
// fails on any function declared in a non-test file that none of them
// links and that is not on linkAllowlist: such a function is either
// dead or test support that belongs in a _test.go file.
func TestProductionCodeIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	dir := t.TempDir()
	build := exec.Command(goTool, append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, binaries...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Function symbols of every binary; those of package main carry the
	// binary's name ("medshared:main.run"), since each binary has its own.
	linked := map[string]bool{}
	for _, b := range binaries {
		name := filepath.Base(b)
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(dir, name)).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", name, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			// "addr type name"; a shape-instantiated name may hold spaces.
			f := strings.Fields(sc.Text())
			if len(f) < 3 || f[1] != "T" && f[1] != "t" {
				continue
			}
			sym := stripTypeArgs(strings.Join(f[2:], " "))
			if strings.HasPrefix(sym, "main.") {
				sym = name + ":" + sym
			}
			linked[sym] = true
		}
	}

	var unlinked []string
	used := map[string]bool{}
	for _, fn := range declaredFuncs(t) {
		prefix := path.Join("medshare", fn.dir) + "."
		if fn.main {
			prefix = path.Base(fn.dir) + ":main."
		}
		if fn.recv == "" && linked[prefix+fn.name] ||
			fn.recv != "" && (linked[prefix+fn.recv+"."+fn.name] || linked[prefix+"(*"+fn.recv+")."+fn.name]) {
			continue
		}
		if key, listed := allowlisted(fn); listed {
			used[key] = true
			continue
		}
		unlinked = append(unlinked, fn.pos+" "+fn.qualName())
	}
	for key := range linkAllowlist {
		if !used[key] {
			t.Errorf("allowlist entry %q names no unlinked function; remove it", key)
		}
	}
	sort.Strings(unlinked)
	if len(unlinked) > 0 {
		t.Errorf("%d functions are linked into no binary; delete them, move them into a _test.go file, or allowlist them with a reason:\n  %s",
			len(unlinked), strings.Join(unlinked, "\n  "))
	}
}

type declaredFunc struct {
	dir, file  string // slash-separated, relative to the module root
	recv, name string // recv is the receiver's base type name, or ""
	main       bool   // declared in a package main
	pos        string // file:line
}

// qualName is "Func" or "Type.Method".
func (fn declaredFunc) qualName() string {
	if fn.recv == "" {
		return fn.name
	}
	return fn.recv + "." + fn.name
}

// allowlisted returns the linkAllowlist key covering fn, if any.
func allowlisted(fn declaredFunc) (string, bool) {
	for _, k := range []string{fn.dir, fn.file, fn.dir + "." + fn.qualName()} {
		if _, ok := linkAllowlist[k]; ok {
			return k, true
		}
	}
	return "", false
}

// declaredFuncs lists every function and method declared in a non-test
// Go file of the module, except init functions and blank names.
func declaredFuncs(t *testing.T) []declaredFunc {
	t.Helper()
	var fns []declaredFunc
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file := filepath.ToSlash(path)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			fn := declaredFunc{
				dir: filepath.ToSlash(filepath.Dir(path)), file: file, name: fd.Name.Name,
				main: f.Name.Name == "main",
				pos:  file + ":" + strconv.Itoa(fset.Position(fd.Pos()).Line),
			}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				fn.recv = recvTypeName(fd.Recv.List[0].Type)
			}
			fns = append(fns, fn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// stripTypeArgs drops the bracketed type arguments nm prints for an
// instantiated generic, so "pmap.(*Map[go.shape.int]).Get" reads as
// "pmap.(*Map).Get".
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
