package sim

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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

// mapRangeAllowlist names the functions under internal/ whose non-test code
// walks a map with range (Go randomises the order), each with the reason
// the walk cannot reach an output in map order. Keys are pkg.Func or
// pkg.Recv.Func, as in testOnlyExportAllowlist.
var mapRangeAllowlist = map[string]string{
	"core.Protocol.Orphans": "collects the IDs, then sorts them",
	"metrics.Eval":          "two walks that only count members of one set missing from the other",
	"serve.sortedIDs":       "collects the IDs, then sorts them",
	"telemetry.labelString": "collects the label names, then sorts them",
}

// TestNoUnorderedMapWalks guards against output that depends on Go's map
// iteration order, which differs from run to run (RangeTable.Aggregate
// once did). It type-checks every non-test package under internal/ and
// fails on a range over a map, or over an iterator of package maps, in a
// function that mapRangeAllowlist does not name. A stale entry fails too.
func TestNoUnorderedMapWalks(t *testing.T) {
	root := moduleRoot(t)
	// The source importer reads build.Default. Without cgo it type-checks
	// the pure-Go variants of net and os/user, which needs no C toolchain
	// for the target.
	defer func(on bool) { build.Default.CgoEnabled = on }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	found := map[string]bool{}
	// check type-checks the module package at path, after the module
	// packages it imports, and scans its range statements.
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if strings.HasPrefix(path, "repro/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(path, "repro/")))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		if !strings.HasPrefix(path, "repro/internal/") {
			return pkg, nil
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				key := f.Name.Name + ".init"
				if fn, ok := decl.(*ast.FuncDecl); ok {
					key = f.Name.Name + "." + fn.Name.Name
					if fn.Recv != nil {
						key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok || !unorderedRange(info, rs.X) {
						return true
					}
					found[key] = true
					if _, ok := mapRangeAllowlist[key]; !ok {
						pos := fset.Position(rs.Pos())
						rel, _ := filepath.Rel(root, pos.Filename)
						t.Errorf("%s:%d: %s ranges over a map, whose order Go randomises; iterate in a fixed order, or allowlist %s with the reason the order cannot reach an output",
							rel, pos.Line, key, key)
					}
					return true
				})
			}
		}
		return pkg, nil
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		if _, err := check("repro/" + filepath.ToSlash(rel)); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for key := range mapRangeAllowlist {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("allowlist entry %s names no function that ranges over a map; remove the entry", key)
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unorderedRange reports whether x, a range expression, is a map or a call
// of one of package maps' iterators.
func unorderedRange(info *types.Info, x ast.Expr) bool {
	if tv, ok := info.Types[x]; ok {
		if _, ok := tv.Type.Underlying().(*types.Map); ok {
			return true
		}
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "maps"
}
