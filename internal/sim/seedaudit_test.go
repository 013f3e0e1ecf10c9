package sim

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
// internal/ that no non-test code in the module uses but that stay, each
// with the reason. Keys are pkg.Name or pkg.Recv.Name.
var testOnlyExportAllowlist = map[string]string{
	"analytic.CostFloodTree":                  "paper equation: the flood-tree cost, eq. (3)",
	"core.Node.Children":                      "facade-reachable: dirq.Runner.Proto.Node",
	"core.Node.ID":                            "facade-reachable: dirq.Runner.Proto.Node",
	"core.Node.Parent":                        "facade-reachable: dirq.Runner.Proto.Node",
	"core.Node.UpdatesSent":                   "facade-reachable: dirq.Runner.Proto.Node",
	"core.Protocol.EstimateSeq":               "facade-reachable: dirq.Runner.Proto",
	"core.Protocol.JoinNode":                  "facade-reachable: dirq.Runner.Proto; the paper's §4.2 node addition",
	"core.Protocol.Predictor":                 "facade-reachable: dirq.Runner.Proto",
	"core.Protocol.Records":                   "facade-reachable: dirq.Runner.Proto",
	"core.Protocol.Tree":                      "facade-reachable: dirq.Runner.Proto",
	"core.RangeTable.Child":                   "facade-reachable: dirq.Runner.Proto.Node(id).Table",
	"core.RangeTable.Children":                "facade-reachable: dirq.Runner.Proto.Node(id).Table",
	"core.RangeTable.ClearOwn":                "facade-reachable: dirq.Runner.Proto.Node(id).Table",
	"core.RangeTable.LastSent":                "facade-reachable: dirq.Runner.Proto.Node(id).Table",
	"experiments.Fig6Result.SteadyStateMeans": "fixture: Fig. 6 readings shared by the experiments and root benchmark tests",
	"lmac.MAC.Broadcast":                      "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.Frame":                          "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.QueueLen":                       "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.SetDeadThreshold":               "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.Slot":                           "facade-reachable: dirq.Runner.MAC",
	"lmac.MAC.Slots":                          "facade-reachable: dirq.Runner.MAC",
	"radio.Meter.Reset":                       "facade-reachable: dirq.Runner.Meter",
	"radio.Meter.Snapshot":                    "facade-reachable: dirq.Runner.Meter",
	"radio.Meter.Total":                       "facade-reachable: dirq.Runner.Meter",
	"sampling.Stats.SkipFraction":             "facade-reachable: dirq.Result.Sampling",
	"sensordata.Generator.Epoch":              "facade-reachable: dirq.Runner.Gen",
	"sensordata.Generator.Evals":              "facade-reachable: dirq.Runner.Gen",
	"sensordata.Generator.Params":             "facade-reachable: dirq.Runner.Gen",
	"sensordata.Generator.SetParams":          "facade-reachable: dirq.Runner.Gen",
	"sensordata.TypeSet.Without":              "facade-reachable: dirq.Runner.Mounted",
	"topology.DefaultPlacement":               "fixture: test networks in several packages",
	"topology.Graph.Clone":                    "facade-reachable: dirq.Runner.Graph",
	"topology.Graph.RemoveNodeEdges":          "facade-reachable: dirq.Runner.Graph",
	"topology.PlaceGrid":                      "fixture: test networks in several packages",
	"topology.PlaceLine":                      "fixture: test networks in several packages",
	"topology.Rect.Valid":                     "facade-reachable: dirq.Runner.Proto.InjectGeoQuery's rect",
	"topology.Tree.Leaves":                    "facade-reachable: dirq.Runner.Tree",
	"topology.Tree.Validate":                  "facade-reachable: dirq.Runner.Tree",
	"trace.Recorder.Count":                    "facade-reachable: dirq.Runner.Trace",
	"trace.Recorder.Filter":                   "facade-reachable: dirq.Runner.Trace",
}

// TestNoTestOnlyExports guards against exported internal API that only
// tests call. internal/ cannot be imported from outside the module, so an
// exported function or method there that no non-test code in the module
// uses is dead weight. It reads the type-checked module (cmd/, examples/,
// the root package and bench/ included), so a use is a reference to that
// very function or method, not to another of the same name. A method also
// counts as used when its type implements an interface, declared in the
// module or in a package it imports, that has a method of that name: the
// call may go through the interface (String for fmt, Drive for
// scenario.Dynamics). Whatever else must stay goes in
// testOnlyExportAllowlist; a stale entry fails too.
func TestNoTestOnlyExports(t *testing.T) {
	mod := loadModule(t)
	used := map[*types.Func]bool{}
	for _, p := range mod.pkgs {
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	// byMethod indexes every interface in sight by its method names.
	byMethod := map[string][]*types.Interface{}
	addIface := func(typ types.Type) {
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range mod.pkgs {
		walk(p.pkg)
		for _, tv := range p.info.Types {
			if _, named := tv.Type.(*types.Named); !named {
				addIface(tv.Type)
			}
		}
	}
	viaInterface := func(fn *types.Func) bool {
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		base := recv.Type()
		if ptr, ok := base.(*types.Pointer); ok {
			base = ptr.Elem()
		}
		if named, ok := base.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return false
		}
		for _, iface := range byMethod[fn.Name()] {
			if types.Implements(base, iface) || types.Implements(types.NewPointer(base), iface) {
				return true
			}
		}
		return false
	}

	flagged := map[string]bool{}
	for _, p := range mod.pkgs {
		if !p.internal {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if used[fn] || viaInterface(fn) {
					continue
				}
				key := funcKey(f, fd)
				flagged[key] = true
				if _, ok := testOnlyExportAllowlist[key]; !ok {
					t.Errorf("%s: %s is exported but no non-test code uses it; delete it with its tests, move it into a _test.go file, or allowlist it with a reason",
						mod.pos(fd.Pos()), key)
				}
			}
		}
	}
	for _, key := range sortedKeys(testOnlyExportAllowlist) {
		if !flagged[key] {
			t.Errorf("allowlist entry %s names no test-only export; remove the entry", key)
		}
	}
}

// funcKey names a function declaration pkg.Func, or pkg.Recv.Func for a
// method, as the allowlists do.
func funcKey(f *ast.File, fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return f.Name.Name + "." + fd.Name.Name
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

// sortedKeys returns an allowlist's keys in order, so failures list
// stably.
func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mapRangeAllowlist names the functions under internal/ whose non-test code
// walks a map with range (Go randomises the order), each with the reason
// the walk cannot reach an output in map order. Keys are pkg.Func or
// pkg.Recv.Func, as in testOnlyExportAllowlist.
var mapRangeAllowlist = map[string]string{
	"core.Protocol.Orphans": "collects the IDs, then sorts them",
	"telemetry.labelString": "collects the label names, then sorts them",
}

// TestNoUnorderedMapWalks guards against output that depends on Go's map
// iteration order, which differs from run to run (RangeTable.Aggregate
// once did). It reads every type-checked non-test package under internal/
// and fails on a range over a map, or over an iterator of package maps, in
// a function that mapRangeAllowlist does not name. A stale entry fails too.
func TestNoUnorderedMapWalks(t *testing.T) {
	mod := loadModule(t)
	found := map[string]bool{}
	for _, p := range mod.pkgs {
		if !p.internal {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				key := f.Name.Name + ".init"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					key = funcKey(f, fd)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok || !unorderedRange(p.info, rs.X) {
						return true
					}
					found[key] = true
					if _, ok := mapRangeAllowlist[key]; !ok {
						t.Errorf("%s: %s ranges over a map, whose order Go randomises; iterate in a fixed order, or allowlist %s with the reason the order cannot reach an output",
							mod.pos(rs.Pos()), key, key)
					}
					return true
				})
			}
		}
	}
	for _, key := range sortedKeys(mapRangeAllowlist) {
		if !found[key] {
			t.Errorf("allowlist entry %s names no function that ranges over a map; remove the entry", key)
		}
	}
}

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

// module is the module's non-test code, type-checked: every package under
// the root, the bench/ module included, in dependency order.
type module struct {
	root string
	fset *token.FileSet
	pkgs []*checkedPkg
}

// checkedPkg is one type-checked package of the module.
type checkedPkg struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	// internal marks a package under internal/, the scope of the audits.
	internal bool
}

// pos renders a position relative to the module root.
func (m *module) pos(p token.Pos) string {
	at := m.fset.Position(p)
	rel, _ := filepath.Rel(m.root, at.Filename)
	return fmt.Sprintf("%s:%d", rel, at.Line)
}

// The module is loaded once and shared by the audits that read it.
var (
	loadOnce   sync.Once
	loaded     *module
	loadFailed error
)

// loadModule returns the type-checked module, loading it on first use.
func loadModule(t *testing.T) *module {
	t.Helper()
	root := moduleRoot(t)
	loadOnce.Do(func() { loaded, loadFailed = typeCheckModule(root) })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

// typeCheckModule type-checks every directory of Go files under root,
// skipping testdata and hidden directories. The module is repro; bench/
// is the module repro/bench, so both map import paths to directories the
// same way.
func typeCheckModule(root string) (*module, error) {
	// The source importer reads build.Default. Without cgo it type-checks
	// the pure-Go variants of net and os/user, which needs no C toolchain
	// for the target.
	defer func(on bool) { build.Default.CgoEnabled = on }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	m := &module{root: root, fset: token.NewFileSet()}
	std := importer.ForCompiler(m.fset, "source", nil)
	checked := map[string]*types.Package{}
	// check type-checks the module package at path, after the module
	// packages it imports.
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "repro" || strings.HasPrefix(path, "repro/") {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")
		dir := filepath.Join(root, filepath.FromSlash(rel))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, m.fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		m.pkgs = append(m.pkgs, &checkedPkg{files: files, info: info, pkg: pkg,
			internal: strings.HasPrefix(path, "repro/internal/")})
		return pkg, nil
	}
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := "repro"
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := check(path); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
		return nil
	})
	return m, err
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
