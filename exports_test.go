package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported declarations of internal/ that no
// program calls and that stay anyway, each with its reason. Keys are
// "pkg.Name" for functions and types and "pkg.Type.Method" for methods,
// pkg being the path below internal/.
var exportAllowlist = map[string]string{
	"sax.ZNormalize":         "with PAA, the oracle TestEncodeMatchesZNormalizePAA holds Encode to",
	"sax.PAA":                "with ZNormalize, the oracle TestEncodeMatchesZNormalizePAA holds Encode to",
	"fault.WordRandom":       "the reliable and core tests corrupt whole words with it",
	"fault.NewOnceAfter":     "the reliable and core tests inject exactly one fault with it",
	"fault.OnceAfter.Fired":  "the reliable and core tests check that the one fault was injected",
	"tensor.MustFromSlice":   "a test utility of the nn, reliable, shape and train tests",
	"tensor.Tensor.AllClose": "a test utility of the tensor, nn, core, reliable, gtsrb and train tests",
	"tensor.Tensor.Map":      "a test utility of the tensor and nn tests",
	"tensor.Tensor.Dot":      "a test utility of the tensor and nn tests",
	"obs.ParsePrometheus":    "the daemon smoke tests and the FuzzParsePrometheus CI target read /metrics with it",
	"obs.HistogramQuantile":  "the daemon smoke tests read quantiles from parsed /metrics with it",
}

// exportExempt are method names that the standard library calls through
// one of its interfaces, so no Go file of the module names the call.
var exportExempt = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "ServeHTTP": true,
}

// TestEveryExportHasAProgramCaller fails for every exported function,
// method or type declared in a non-test file of internal/ that no non-test
// file of the module or of bench/ mentions outside its own declaration: a
// name only its own tests call is surface no program needs. Functions and
// types count as mentioned when their package names them or another file
// selects them through an import of it; methods are matched by name alone
// (the scan has no type information), so a method shares its callers with
// every same-named method and field.
func TestEveryExportHasAProgramCaller(t *testing.T) {
	type export struct {
		key, ref string // allowlist key; mention key ("importpath.Name", or the bare method name)
		pos      token.Position
	}
	fset := token.NewFileSet()
	var exports []export
	mentions := map[string]int{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := path.Join("repro", dir)
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		own := map[*ast.Ident]bool{}
		if rel, ok := strings.CutPrefix(dir, "internal/"); ok {
			add := func(id *ast.Ident, key, ref string) {
				own[id] = true
				if id.IsExported() {
					exports = append(exports, export{key, ref, fset.Position(id.Pos())})
				}
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						add(decl.Name, rel+"."+decl.Name.Name, pkgPath+"."+decl.Name.Name)
					} else {
						add(decl.Name, rel+"."+receiverName(decl.Recv.List[0].Type)+"."+decl.Name.Name, decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							add(ts.Name, rel+"."+ts.Name.Name, pkgPath+"."+ts.Name.Name)
						}
					}
				}
			}
		}
		selected := map[*ast.Ident]bool{}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A method's receiver names its type, but does not use it.
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.ValueSpec:
				// var _ I = T{} asserts an interface; it calls nothing.
				for _, id := range n.Names {
					if id.Name != "_" {
						return true
					}
				}
				return false
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					mentions[imports[x.Name]+"."+n.Sel.Name]++
				}
			case *ast.Ident:
				if own[n] {
					return true
				}
				mentions[n.Name]++
				if !selected[n] {
					mentions[pkgPath+"."+n.Name]++
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exports) == 0 {
		t.Fatal("found no exported declaration under internal/")
	}
	var unused []string
	allowed := map[string]bool{}
	for _, e := range exports {
		method := !strings.Contains(e.ref, ".")
		switch {
		case method && exportExempt[e.ref]:
		case mentions[e.ref] > 0:
		case exportAllowlist[e.key] != "":
			allowed[e.key] = true
		default:
			unused = append(unused, e.key+" ("+e.pos.String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("no program calls %s: delete it, or allowlist it with its reason", u)
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s is stale: a program calls it, or it names no export", key)
		}
	}
}

// receiverName is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
