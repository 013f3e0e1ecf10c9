package sim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoAmbientRandomness audits the whole module for ambient entropy:
// every simulation draw must come from sim.RNG with an explicit seed, or
// results stop being reproducible and the diffuzz oracles stop meaning
// anything. Two invariants:
//
//   - no file imports math/rand or math/rand/v2, anywhere — sim.RNG is
//     the only generator;
//   - no non-test library file calls time.Now; wall-clock reads are
//     confined to package main under cmd/ and examples/ (timestamps and
//     latency clocks in CLI output) and to tests. Library code that
//     needs a deadline takes a context; code that needs a latency clock
//     takes an injected func (serve.ShardConfig.Clock).
func TestNoAmbientRandomness(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}

		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				t.Errorf("%s imports %s; use repro/internal/sim.RNG with an explicit seed", rel, imp.Path.Value)
			}
		}

		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if sep := string(filepath.Separator); f.Name.Name == "main" &&
			(strings.HasPrefix(rel, "cmd"+sep) || strings.HasPrefix(rel, "examples"+sep)) {
			return nil
		}
		timeName := importName(f, "time")
		if timeName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Now" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName && id.Obj == nil {
				t.Errorf("%s:%d calls time.Now; library code must stay clock-free (take a context or a timestamp)",
					rel, fset.Position(sel.Pos()).Line)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleRoot walks upward from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// importName returns the identifier a file uses for an import path, or ""
// when the path is not imported. A dot import returns "." (which the
// selector check then can't match — acceptable: the repo bans dot imports
// by convention and gofmt keeps them out).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path
	}
	return ""
}

// testOnlyExportAllowlist names the exported functions and methods under
// internal/ that no non-test code in the module calls but that stay, each
// with the reason. Keys are pkg.Name or pkg.Recv.Name.
var testOnlyExportAllowlist = map[string]string{
	"analytic.CostFloodTree":                  "paper equation: the flood-tree cost, eq. (3)",
	"core.Node.UpdatesSent":                   "facade-reachable: dirq.Runner.Proto.Node",
	"core.Protocol.EstimateSeq":               "facade-reachable: dirq.Runner.Proto",
	"core.Protocol.JoinNode":                  "facade-reachable: dirq.Runner.Proto; the paper's §4.2 node addition",
	"core.Protocol.Records":                   "facade-reachable: dirq.Runner.Proto",
	"core.RangeTable.ClearOwn":                "facade-reachable: dirq.Runner.Proto.Node(id).Table",
	"core.RangeTable.LastSent":                "facade-reachable: dirq.Runner.Proto.Node(id).Table",
	"experiments.Fig6Result.SteadyStateMeans": "fixture: Fig. 6 readings shared by the experiments and root benchmark tests",
	"lmac.MAC.Frame":                          "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.OnNeighborNew":                  "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.QueueLen":                       "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.SetDeadThreshold":               "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.Slot":                           "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.Slots":                          "facade-reachable: dirq.Runner.MAC",
	"sampling.Stats.SkipFraction":             "facade-reachable: dirq.Result.Sampling",
	"sensordata.Generator.SetParams":          "facade-reachable: dirq.Runner.Gen",
	"sensordata.TypeSet.Without":              "facade-reachable: dirq.Runner.Mounted",
	"sim.Engine.Cancel":                       "facade-reachable: dirq.Runner.Engine",
	"sim.Engine.Pending":                      "facade-reachable: dirq.Runner.Engine",
	"sim.Engine.Schedule":                     "facade-reachable: dirq.Runner.Engine",
	"sim.Engine.ScheduleIn":                   "facade-reachable: dirq.Runner.Engine",
	"sim.Engine.Steps":                        "facade-reachable: dirq.Runner.Engine",
	"sim.Engine.Stopped":                      "facade-reachable: dirq.Runner.Engine",
	"topology.DefaultPlacement":               "fixture: test networks in several packages",
	"topology.Graph.RemoveNodeEdges":          "facade-reachable: dirq.Runner.Graph",
	"topology.PlaceGrid":                      "fixture: test networks in several packages",
	"topology.PlaceLine":                      "fixture: test networks in several packages",
	"topology.Rect.Valid":                     "facade-reachable: dirq.Runner.Proto.InjectGeoQuery's rect",
	"topology.Tree.Leaves":                    "facade-reachable: dirq.Runner.Tree",
	"trace.Recorder.Filter":                   "facade-reachable: dirq.Runner.Trace",
}

// TestNoTestOnlyExports guards against exported internal API that only
// tests call. internal/ cannot be imported from outside the module, so an
// exported function there whose name appears nowhere in non-test code but
// at its own declaration is dead weight. The check counts identifiers
// lexically across every non-test file in the module, bench/ included; a
// name shared with anything else counts as a use, so it errs towards
// passing. Interface methods pass when the interface is declared in the
// module; whatever else must stay goes in testOnlyExportAllowlist.
func TestNoTestOnlyExports(t *testing.T) {
	root := moduleRoot(t)
	uses := map[string]int{}
	type decl struct{ key, pos string }
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit]++
			}
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil {
				key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, decl{key, fmt.Sprintf("%s:%d", rel, fset.Position(fn.Pos()).Line)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if uses[name] > 1 {
			continue
		}
		flagged[d.key] = true
		if _, ok := testOnlyExportAllowlist[d.key]; !ok {
			t.Errorf("%s: %s is exported but no non-test code uses it; delete it with its tests, move it into a _test.go file, or allowlist it with a reason",
				d.pos, d.key)
		}
	}
	for key := range testOnlyExportAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s names no test-only export; remove the entry", key)
		}
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}
