//go:build census

package evprop

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllowed names the functions declared in internal/ that no non-test
// file calls and that stay anyway, each with the reason it stays. A key is
// "pkg.Func" or "pkg.Type.Method", pkg being the path under internal/.
var censusAllowed = map[string]string{
	"potential.Potential.MulRangeScalar":        "the scalar reference the plan kernels are fuzzed and benchmarked against",
	"potential.Potential.DivRangeScalar":        "the scalar reference the plan kernels are fuzzed and benchmarked against",
	"potential.Potential.MarginalIntoScalar":    "the scalar reference the plan kernels are fuzzed and benchmarked against",
	"potential.Potential.MaxMarginalIntoScalar": "the scalar reference the plan kernels are fuzzed and benchmarked against",
	"potential.Potential.ExtendIntoScalar":      "the scalar reference the plan kernels are fuzzed and benchmarked against",
	"potential.Potential.MaxMarginal":           "the reference the max-product kernels are tested against",
	"potential.Potential.ArgMax":                "the reference the MPE decoding is tested against",
	"potential.Potential.Equal":                 "the comparator tests across the packages check tables with",
	"potential.Potential.Validate":              "the probe tests check a constructed table's invariants with",
	"potential.MustNew":                         "the table constructor test fixtures are built with",
	"potential.Scalar":                          "the unit table test fixtures start products from",
	"bayesnet.Network.Moralized":                "the moral graph the elimination reference (refEliminate) triangulates",
	"bayesnet.Network.LogLikelihood":            "the oracle the structure-learning tests score with",
	"jtree.Chain":                               "a fixture tree shape the tests build",
	"jtree.Star":                                "a fixture tree shape the tests build",
	"jtree.Balanced":                            "a fixture tree shape the tests build",
	"jtree.Tree.Leaves":                         "the probe the generator tests check a tree's shape with",
	"jtree.Tree.MaterializeUniform":             "the all-ones tables the scheduler, task-graph and engine tests run on",
	"jtree.Tree.HeaviestLeafPath":               "the reference the critical-path weights are tested against",
	"jtree.Decomposition.Validate":              "the invariant check the decomposition tests assert with",
	"taskgraph.State.RetainedEntries":           "the probe that tests a run's scratch went back to the graph",
	"core.Engine.Graph":                         "the probe core's tests count tasks and build reference states with",
	"core.Result.State":                         "the probe core's tests read a run's tables with",
	"core.Result.CheckCalibration":              "the probe core's tests assert calibration with",
	"sched.Pool.Workers":                        "the probe a scheduler test claims every core with",
	"sched.Pool.RunsInFlight":                   "the probe that tests a pool run is retired",
	"cache.Group.InFlight":                      "the probe that tests a singleflight call is retired",
	"cache.LRU.Len":                             "the probe the cache tests count entries with",
	"machine.CriticalPathTime":                  "the lower bound the simulators are tested against",
	"audit.NewMemStore":                         "the in-memory store tests drive the audit pipeline with",
	"audit.MemStore.Batches":                    "how tests read the in-memory store back",
	"audit.DecodeBatch":                         "the decoder tests read a written batch back with",
	"registry.LiteralSource":                    "the fixture source the registry tests load models from",
	"obs.LintExposition":                        "the linter the /v1/metrics tests hold the exposition format to",
	"obs/trace.LintOTLP":                        "the linter the exporter tests hold the OTLP JSON to",
	"obs/trace.Float":                           "the float attribute the OTLP encoding tests fix",
	"obs/trace.Trace.ID":                        "the probe that tests a request adopted the caller's trace ID",
	"obs/trace.SpanContext.Sampled":             "the probe the traceparent tests read the sampled flag with",
}

// censusExempt names the packages whose declarations the census does not
// judge: internal/lazy leaves with the benchmark's layer rows, and until then
// its exported surface is the benchmark module's.
var censusExempt = map[string]bool{"lazy": true}

// censusInterfaces are interfaces the standard library satisfies dynamically
// (fmt, encoding/json, sort), which no file of this repo names.
var censusInterfaces = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "Formatter"}, {"fmt", "GoStringer"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"log/slog", "LogValuer"}, {"io", "WriterTo"}, {"io", "ReaderFrom"},
}

// TestCensus type-checks the non-test files of both modules (this one and
// benchmark/) and fails naming every function or method declared in non-test
// internal/ code that no non-test file references, other than from its own
// body. A method that satisfies an interface is referenced through it. Run it
// with `make census`.
func TestCensus(t *testing.T) {
	l := &censusLoader{
		fset:  token.NewFileSet(),
		std:   importer.ForCompiler(token.NewFileSet(), "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	for _, mod := range [][2]string{{"evprop", "."}, {"evprop/benchmark", "benchmark"}} {
		err := filepath.WalkDir(mod[1], func(file string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir():
				if file != mod[1] && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || file == "benchmark") {
					return filepath.SkipDir
				}
			case strings.HasSuffix(file, ".go") && !strings.HasSuffix(file, "_test.go"):
				dir := filepath.Dir(file)
				rel, _ := filepath.Rel(mod[1], dir)
				l.dirs[path.Join(mod[0], filepath.ToSlash(rel))] = dir
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	// Every interface the program mentions or passes a value as (heap.Push's
	// heap.Interface), and the standard library's dynamic ones.
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, tv := range l.info.Types {
		addIface(tv.Type)
		if sig, ok := tv.Type.(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				addIface(sig.Params().At(i).Type())
			}
		}
	}
	for _, ref := range censusInterfaces {
		pkg, err := l.std.Import(ref[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(ref[1]).Type().Underlying().(*types.Interface))
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	// The functions declared in internal/, each with its declaration's extent.
	type decl struct {
		key      string
		pos, end token.Pos
	}
	declared := map[*types.Func]decl{}
	for _, p := range paths {
		rel, ok := strings.CutPrefix(p, "evprop/internal/")
		if !ok || censusExempt[rel] {
			continue
		}
		for _, f := range l.files[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				key := rel + "." + fn.Name()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					key = rel + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
				}
				declared[fn] = decl{key, fd.Pos(), fd.End()}
			}
		}
	}
	used := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := declared[fn]; ok && id.Pos() >= d.pos && id.Pos() < d.end {
			continue // a recursive call is no caller
		}
		used[fn] = true
	}

	var found []string
	allowed := map[string]bool{}
	for fn, d := range declared {
		switch {
		case used[fn] || fn.Type().(*types.Signature).Recv() != nil && satisfies(fn):
		case censusAllowed[d.key] != "":
			allowed[d.key] = true
		default:
			found = append(found, "no non-test file references "+d.key+" ("+l.fset.Position(d.pos).String()+")")
		}
	}
	for k := range censusAllowed {
		if !allowed[k] {
			found = append(found, "allowlist entry "+k+" names no unreferenced function: delete it")
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

// censusLoader type-checks this repo's packages from source, once each, into
// one shared types.Info, so a use in one package and the declaration in
// another resolve to the same object. Standard-library imports go to the
// source importer.
type censusLoader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *censusLoader) Import(importPath string) (*types.Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[importPath]
	if !ok {
		return l.std.Import(importPath)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.files[importPath] = files
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}
