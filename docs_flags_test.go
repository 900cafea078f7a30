package trafficdiff

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goToolFlags are the go command, test binary and linker flags the docs
// name in their `go test …` and `go build …` lines.
var goToolFlags = map[string]bool{
	"bench": true, "benchtime": true, "count": true, "cpu": true, "export": true,
	"fuzz": true, "fuzztime": true, "gcflags": true, "ldflags": true, "race": true,
	"randlayout": true, "run": true, "tags": true, "v": true,
}

// commandFlags collects the flag names the commands define, read from
// the flag.X("name", …) and flag.XVar(&v, "name", …) calls in
// cmd/*/main.go and bench/main.go without building anything.
func commandFlags(t *testing.T) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cmd/*/main.go (err %v)", err)
	}
	files = append(files, filepath.Join("bench", "main.go"))
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) <= arg {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
			return true
		})
	}
	return names
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	flagTok  = regexp.MustCompile(`(?:^|[\s(])-([A-Za-z][A-Za-z0-9-]*)`)
)

// TestDocsNameOnlyExistingFlags: every `-flag` token in an inline code
// span of README.md and DESIGN.md is a flag some command defines, or a
// go tool flag. A flag deleted or renamed in code then cannot linger
// in the docs.
func TestDocsNameOnlyExistingFlags(t *testing.T) {
	flags := commandFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, m := range flagTok.FindAllStringSubmatch(span[1], -1) {
					if name := m[1]; !flags[name] && !goToolFlags[name] {
						t.Errorf("%s:%d: `%s` names -%s, which no command defines", doc, i+1, span[1], name)
					}
				}
			}
		}
	}
}
