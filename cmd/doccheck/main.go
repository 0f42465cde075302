// Command doccheck keeps the Markdown docs honest. It walks every
// *.md file in the repository and fails (exit 1) on:
//
//   - broken relative links: [text](path) targets that do not exist
//     on disk (anchors are stripped; http/https/mailto links are
//     skipped);
//   - stale code references: backticked `pkg.Ident` mentions, where
//     pkg is one of this module's packages, naming an exported
//     identifier the package no longer declares (test files count,
//     so fuzz targets may be referenced; `foo_test` external test
//     packages attribute to foo);
//   - drifted API examples: in files that use <!-- doccheck: Type -->
//     markers (docs/API.md), every ```json fence must carry one and
//     must strict-decode — unknown fields rejected, exactly like a
//     slicerd request body — into the named internal/service type;
//   - undocumented metrics: every string literal that non-test Go code
//     passes as the name to a Counter, Gauge or Histogram call must
//     appear in backticks in docs/OBSERVABILITY.md, the metric
//     catalogue.
//
// It is wired into `make docs-check` (and `make check`), so docs
// drift breaks the build the same way a failing test does.
//
// Usage:
//
//	doccheck [-root dir]
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	mdFiles, err := findMarkdown(*root)
	if err != nil {
		fatal(err)
	}
	if len(mdFiles) == 0 {
		fatal(fmt.Errorf("no .md files found under %s", *root))
	}
	exported, metrics, err := indexGo(*root)
	if err != nil {
		fatal(err)
	}

	problems, err := checkMetrics(*root, metrics)
	if err != nil {
		fatal(err)
	}
	for _, md := range mdFiles {
		b, err := os.ReadFile(md)
		if err != nil {
			fatal(err)
		}
		rel, _ := filepath.Rel(*root, md)
		problems = append(problems, checkLinks(*root, rel, string(b))...)
		problems = append(problems, checkIdents(rel, string(b), exported)...)
		problems = append(problems, checkAPIExamples(rel, string(b))...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s) in %d file(s) checked\n", len(problems), len(mdFiles))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d markdown files OK (%d packages indexed, %d metrics catalogued)\n", len(mdFiles), len(exported), len(metrics))
}

// catalogue is the Markdown file that must name every metric.
const catalogue = "docs/OBSERVABILITY.md"

// checkMetrics verifies that the catalogue mentions every metric name,
// given as name → "file:line" of one registration, in backticks.
func checkMetrics(root string, metrics map[string]string) ([]string, error) {
	b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(catalogue)))
	if err != nil {
		return nil, err
	}
	doc := string(b)
	var problems []string
	for name, pos := range metrics {
		if !strings.Contains(doc, "`"+name+"`") {
			problems = append(problems, fmt.Sprintf("%s: metric %q is missing from %s", pos, name, catalogue))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// findMarkdown returns every .md file under root, skipping VCS and
// tool directories.
func findMarkdown(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "node_modules", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			out = append(out, path)
		}
		return nil
	})
	sort.Strings(out)
	return out, err
}

// linkRE matches inline Markdown links [text](target). Reference-style
// links and autolinks are out of scope.
var linkRE = regexp.MustCompile(`\[[^\]\n]*\]\(([^)\s]+)\)`)

// checkLinks verifies that relative link targets exist on disk.
func checkLinks(root, rel, content string) []string {
	var problems []string
	dir := filepath.Dir(filepath.Join(root, rel))
	for lineNo, line := range strings.Split(content, "\n") {
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if u, err := url.Parse(target); err == nil && u.Scheme != "" {
				continue // http:, https:, mailto:, ...
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure anchor into this file
			}
			p := filepath.Join(dir, filepath.FromSlash(target))
			if _, err := os.Stat(p); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %q", rel, lineNo+1, m[1]))
			}
		}
	}
	return problems
}

// identRE matches backticked pkg.Ident references: a lowercase
// package name, a dot, and an exported (capitalized) identifier,
// optionally followed by a method or call suffix that is ignored.
var identRE = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9]*)[^`]*`")

// checkIdents verifies that `pkg.Ident` mentions refer to exported
// identifiers the named package still declares. Unknown package names
// are skipped (they refer to stdlib or prose, not this module).
func checkIdents(rel, content string, exported map[string]map[string]bool) []string {
	var problems []string
	inFence := false
	for lineNo, line := range strings.Split(content, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range identRE.FindAllStringSubmatch(line, -1) {
			pkg, ident := m[1], m[2]
			idents, ok := exported[pkg]
			if !ok {
				continue
			}
			if !idents[ident] {
				problems = append(problems, fmt.Sprintf(
					"%s:%d: stale reference %s.%s (not exported by package %s)", rel, lineNo+1, pkg, ident, pkg))
			}
		}
	}
	return problems
}

// indexGo parses every Go file under root. It returns, per package
// name, the set of exported top-level identifiers (types, funcs,
// consts, vars) plus exported methods and struct fields — so docs may
// reference `cegar.Options` and `smt.StatusSat` alike — and the metric
// names non-test files register (see addMetrics).
func indexGo(root string) (map[string]map[string]bool, map[string]string, error) {
	out := make(map[string]map[string]bool)
	metrics := make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		if !strings.HasSuffix(path, "_test.go") {
			rel, _ := filepath.Rel(root, path)
			addMetrics(fset, rel, f, metrics)
		}
		// Test files count too — docs reference fuzz targets and test
		// helpers by name; external test packages attribute to the
		// package under test.
		name := strings.TrimSuffix(f.Name.Name, "_test")
		if name == "main" {
			return nil
		}
		idents := out[name]
		if idents == nil {
			idents = make(map[string]bool)
			out[name] = idents
		}
		addExported(f, idents)
		return nil
	})
	return out, metrics, err
}

// addMetrics records, as name → "file:line", the string literal passed
// first to every call of a method named Counter, Gauge or Histogram —
// the obs registry's constructors.
func addMetrics(fset *token.FileSet, rel string, f *ast.File, metrics map[string]string) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Counter", "Gauge", "Histogram":
		default:
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		if name, err := strconv.Unquote(lit.Value); err == nil {
			if _, seen := metrics[name]; !seen {
				metrics[name] = fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(lit.Pos()).Line)
			}
		}
		return true
	})
}

func addExported(f *ast.File, idents map[string]bool) {
	add := func(n *ast.Ident) {
		if n != nil && n.IsExported() {
			idents[n.Name] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
					switch t := s.Type.(type) {
					case *ast.StructType:
						for _, fld := range t.Fields.List {
							for _, n := range fld.Names {
								add(n)
							}
						}
					case *ast.InterfaceType:
						for _, meth := range t.Methods.List {
							for _, n := range meth.Names {
								add(n)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n)
					}
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doccheck:", err)
	os.Exit(1)
}
