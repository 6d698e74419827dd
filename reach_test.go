//go:build reach

package neutronsim

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// keep lists the non-test functions that no binary links but that stay,
// each with the reason. A key names a function (pkg.F, pkg.T.M or
// pkg.(*T).M), every method of a type (pkg.T or pkg.(*T)), or a file.
// The root facade, the library's public API that example_test.go runs,
// and String and Class methods are kept by rule. Everything else no
// binary links is dead code: delete it, or add it here with its reason.
var keep = map[string]string{
	"neutronsim/internal/checkpoint.YoungInterval":                       "the first-order optimum TestDalyCloseToYoungForSmallDelta checks DalyInterval against",
	"neutronsim/internal/jobsim.SweepIntervals":                          "the empirical optimum TestEmpiricalOptimumNearDaly checks DalyInterval against",
	"neutronsim/internal/spectrum.(*Mixture).Components":                 "the components the rejection-sampler reference of TestAliasCDFEquivalence draws from",
	"neutronsim/internal/spectrum.EstimateBandFluxes":                    "the Monte Carlo band fluxes TestAliasBandFluxEquivalence checks the alias sampler with",
	"neutronsim/internal/spectrum.NewEnvironment":                        "the three-band mixture the alias equivalence tests sample next to ChipIR and ROTAX",
	"neutronsim/internal/spectrum.(*Mono)":                               "Mono's Spectrum methods: TestCompilePinnedDigests compiles plans on a thermal Mono",
	"neutronsim/internal/stats.(*Histogram).Total":                       "the probe TestLethargyHistogramFluxConservation checks flux conservation with",
	"neutronsim/internal/units.CrossSection.Barns":                       "the unit the physics tests state tabulated cross sections in",
	"neutronsim/internal/transport.(*TransportWeights)":                  "the weighted exit totals the TestImplicitCapture suite compares with analog counts",
	"neutronsim/internal/plan.(*CampaignPlan).Checksum":                  "the plan digest TestCompilePinnedDigests pins",
	"neutronsim/internal/plan.(*CampaignPlan).SampleInteraction":         "the draw of the frozen scalar run loop in internal/beam/batch_test.go",
	"neutronsim/internal/plan.(*CampaignPlan).SampleInteractionWeighted": "the weighted draw of the frozen scalar run loop in internal/beam/batch_test.go",
	"neutronsim/internal/plan.Bias.IsIdentity":                           "the engine's biased conformance test checks identity-factor campaigns against exact ones through it",
	"neutronsim/internal/server.(*Server).Handler":                       "the httptest seam every server and cluster test mounts",
	"neutronsim/internal/cluster.(*Coordinator).Peers":                   "the peer set the cluster conformance test and CompareBench read",
	"internal/cluster/bench.go":                                          "CompareBench, the cluster gate row; it sets the client's unexported poll interval, so it lives in package cluster",
	"neutronsim/internal/surrogate.LoadDataset":                          "reads back the training set sweep -train-out writes",
	"neutronsim/internal/telemetry.ReadSnapshot":                         "reads back the snapshot every -metrics-out writes",
}

// excused reports whether an unlinked function stays, and the keep key
// that says why ("" when a rule keeps it).
func excused(pkg string, d funcDecl) (key string, ok bool) {
	if pkg == "neutronsim" || strings.HasSuffix(d.name, ".String") || strings.HasSuffix(d.name, ".Class") {
		return "", true
	}
	full := pkg + "." + d.name
	for _, k := range []string{full, full[:strings.LastIndex(full, ".")], d.pos.Filename} {
		if _, ok := keep[k]; ok {
			return k, true
		}
	}
	return "", false
}

// TestEveryFunctionLinked fails on each non-test function that no binary
// of the module links and the keep-list does not name. It builds every
// main package, and the nested cmd/neutronbench module, without inlining,
// so every function a binary calls keeps its symbol, then compares the
// symbol tables with the function declarations. The builds take seconds
// even when cached, so the test sits behind the reach build tag, outside
// the plain go test ./... run:
//
//	go test -tags reach -run '^TestEveryFunctionLinked$' .
func TestEveryFunctionLinked(t *testing.T) {
	bin := t.TempDir()
	pkgs := listPackages(t)
	var mains []string
	for _, p := range pkgs {
		if p.name == "main" {
			mains = append(mains, p.path)
		}
	}
	run(t, "go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	run(t, "go", "build", "-C", "cmd/neutronbench", "-gcflags=all=-l", "-o", filepath.Join(bin, "neutronbench"), ".")

	all := map[string]bool{}
	own := map[string]map[string]bool{} // main package -> its binary's symbols
	for _, m := range append(mains, "neutronbench") {
		syms := symbols(t, filepath.Join(bin, filepath.Base(m)))
		own[m] = syms
		for s := range syms {
			all[s] = true
		}
	}

	var missing []string
	used := map[string]bool{}
	for _, p := range pkgs {
		linked, prefix := all, p.path
		if p.name == "main" {
			linked, prefix = own[p.path], "main"
		}
		for _, d := range p.funcs {
			if linked[prefix+"."+d.name] {
				continue
			}
			if key, ok := excused(p.path, d); ok {
				used[key] = true
				continue
			}
			missing = append(missing, fmt.Sprintf("%s: %s.%s", d.pos, p.path, d.name))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is linked into no binary", m)
	}
	for k, reason := range keep {
		if !used[k] {
			t.Errorf("keep-list entry %s excuses no unlinked function; remove it", k)
		}
		if reason == "" {
			t.Errorf("keep-list entry %s gives no reason", k)
		}
	}
}

type pkgFuncs struct {
	path, name string
	funcs      []funcDecl
}

type funcDecl struct {
	name string // F, T.M or (*T).M, as the linker spells it
	pos  token.Position
}

// listPackages parses the non-test files the default build compiles in
// every package of the module.
func listPackages(t *testing.T) []pkgFuncs {
	out := run(t, "go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var pkgs []pkgFuncs
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "\t")
		p := pkgFuncs{path: f[0], name: f[1]}
		for _, file := range strings.Fields(f[3]) {
			path := filepath.Join(f[2], file)
			af, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range af.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				pos := fset.Position(fd.Pos())
				if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
					pos.Filename = rel
				}
				p.funcs = append(p.funcs, funcDecl{name: linkName(fd), pos: pos})
			}
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// linkName spells a declaration the way the linker's symbol table does,
// without the package path: F, T.M or (*T).M.
func linkName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ, star := fd.Recv.List[0].Type, false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

var (
	textSym     = regexp.MustCompile(`(?m)^\s*[0-9a-f]+ [Tt] (.+)$`)
	genericArgs = regexp.MustCompile(`\[[^\[\]]*\]`)
)

// symbols returns a binary's text symbols with generic instantiation
// brackets removed, so pkg.F[go.shape.int] reads pkg.F.
func symbols(t *testing.T, binary string) map[string]bool {
	syms := map[string]bool{}
	for _, m := range textSym.FindAllStringSubmatch(run(t, "go", "tool", "nm", binary), -1) {
		name := m[1]
		for genericArgs.MatchString(name) { // innermost first: brackets nest
			name = genericArgs.ReplaceAllString(name, "")
		}
		syms[name] = true
	}
	return syms
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}
