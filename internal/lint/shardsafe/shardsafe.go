// Package shardsafe enforces the per-machine ownership rule: code that
// runs inside a simulated cycle must not write state another machine can
// see.
//
// A machine's components tick on one goroutine, but a process runs many
// machines at once: the fleet pool executes -jobs experiment points
// concurrently, and cedarserve runs one simulation per admitted request.
// Each machine owns its object graph, so a component may mutate only
// that graph; anything it shares must be read-only or synchronised. A
// package-level variable is the one kind of state every machine in the
// process sees at once, so a write to one from Tick-reachable code is a
// data race between concurrent machines and a determinism hole for each
// of them (its value then depends on how their ticks interleave).
//
// The check therefore flags, in any function reachable on the module
// call graph from a Tick/Step root declared in one of the configured
// packages, every assignment or ++/-- whose destination resolves to a
// package-level variable (of any package — writing another package's
// exported global from per-cycle code is just as shared). Reads are
// fine, receiver/local writes are fine, and mutation through the atomic
// types' method sets appears as calls rather than assignments, so the
// sanctioned sync/atomic escape hatch passes untouched. Justified
// exceptions carry //lint:allow shardsafe.
package shardsafe

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"cedar/internal/lint"
)

// Config declares which packages' per-cycle code the ownership rule
// covers.
type Config struct {
	// ShardPkgs lists module-relative package paths whose Tick/Step
	// roots start per-cycle code. Roots are only taken from these
	// packages, and findings are only reported in them.
	ShardPkgs []string
	// Roots lists the function/method names that start a cycle
	// ("Tick", "Step").
	Roots []string
}

// DefaultConfig covers the same per-cycle surface as hotalloc: the
// engine and every component it can tick, so the whole cycle obeys the
// ownership rule.
var DefaultConfig = Config{
	ShardPkgs: []string{
		"internal/sim",
		"internal/core",
		"internal/network",
		"internal/gmem",
		"internal/cmem",
		"internal/cache",
		"internal/ccbus",
		"internal/ce",
		"internal/prefetch",
	},
	Roots: []string{"Tick", "Step"},
}

// Analyzer is shardsafe with the cedar shard-surface definition.
var Analyzer = New(DefaultConfig)

// New builds a shardsafe analyzer for the given shard-surface definition.
func New(cfg Config) *lint.ModuleAnalyzer {
	a := &lint.ModuleAnalyzer{
		Name: "shardsafe",
		Doc:  "flags writes to package-level state from per-cycle Tick/Step-reachable code; per-cycle state must live in the machine's own object graph",
	}
	a.Run = func(pass *lint.ModulePass) error { return run(pass, cfg) }
	return a
}

func relPath(pkg *lint.Package) string {
	if pkg.Path == pkg.Module {
		return ""
	}
	return strings.TrimPrefix(pkg.Path, pkg.Module+"/")
}

func run(pass *lint.ModulePass, cfg Config) error {
	shard := map[string]bool{}
	for _, p := range cfg.ShardPkgs {
		shard[p] = true
	}
	rootName := map[string]bool{}
	for _, r := range cfg.Roots {
		rootName[r] = true
	}

	g := pass.Module.CallGraph()

	var rootKeys []string
	for key, node := range g.Nodes {
		if shard[relPath(node.Pkg)] && rootName[node.Decl.Name.Name] {
			rootKeys = append(rootKeys, key)
		}
	}
	sort.Strings(rootKeys)

	// reachedVia maps every covered function to the first root that
	// reaches it, for the "(reachable from ...)" note in findings.
	reachedVia := map[string]string{}
	for _, root := range rootKeys {
		for key := range g.Reachable([]string{root}) {
			if _, ok := reachedVia[key]; !ok {
				reachedVia[key] = root
			}
		}
	}

	var keys []string
	for key := range reachedVia {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	for _, key := range keys {
		node := g.Nodes[key]
		if node == nil || !shard[relPath(node.Pkg)] {
			continue
		}
		filename := node.Pkg.Fset.Position(node.Decl.Pos()).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		checkFunc(pass, node, reachedVia[key])
	}
	return nil
}

// checkFunc walks one per-cycle function body and reports
// writes whose destination is package-level. via names the root that
// makes the function per-cycle.
func checkFunc(pass *lint.ModulePass, node *lint.FuncNode, via string) {
	info := node.Pkg.Info
	checkWrite := func(dst ast.Expr) {
		id := rootIdent(dst)
		if id == nil || id.Name == "_" {
			return
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return
		}
		pass.Reportf(dst.Pos(),
			"write to package-level %s.%s from per-cycle code (reachable from %s); every concurrently running machine shares it",
			obj.Pkg().Name(), obj.Name(), via)
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(n.X)
		}
		return true
	})
}

// rootIdent strips selectors, indexing, dereferences and parens off a
// write destination down to the identifier that owns the storage.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
