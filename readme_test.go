package approxsel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmePathsExist keeps README's repository paths honest: every
// backticked token that starts with internal/, cmd/, bench/ or examples/
// names a file or directory that exists (its first word is the path, so
// `examples/dedup -live` checks examples/dedup), and no retired BENCH_*.json
// artifact is mentioned.
func TestReadmePathsExist(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	checked := 0
	for _, m := range regexp.MustCompile("`((?:internal|cmd|bench|examples)/[^`]*)`").FindAllStringSubmatch(readme, -1) {
		path := strings.TrimRight(strings.Fields(m[1])[0], "/")
		if _, err := os.Stat(path); err != nil {
			t.Errorf("README names `%s`, but %s does not exist", m[1], path)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no repository path found in README; the pattern is stale")
	}
	for _, name := range regexp.MustCompile(`BENCH_\w*\.json`).FindAllString(readme, -1) {
		t.Errorf("README mentions %s; the BENCH_*.json artifacts are retired", name)
	}
}

// TestReadmeNamesRealFlagsAndRoutes keeps README's command-line surface
// honest. A flag counts as attributed to a command when it follows the
// command on a README line (`approxserved -data DIR`, `approxbench -exp
// list`) or, for approxserved, stands alone in backticks in a section that
// documents the daemon; each must be defined in that command's run. Every
// /v1/, /cluster/ or /chaos/ route README names must be registered in
// internal/server/handlers.go.
func TestReadmeNamesRealFlagsAndRoutes(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, cmd := range []struct {
		name string
		// sections matches the headings of the sections whose standalone
		// backticked flags belong to the command; nil matches none.
		sections *regexp.Regexp
	}{
		{"approxserved", regexp.MustCompile(`^(approxserved|Observability|Durable persistence|Standing queries)\b`)},
		{"approxbench", nil},
	} {
		flags := sourceNames(t, "cmd/"+cmd.name+"/main.go", `fs\.\w+\("([\w-]+)"`)
		var named []string
		for _, m := range regexp.MustCompile("(?m)(?:^|`)"+cmd.name+" ([^`#\n]*)").FindAllStringSubmatch(readme, -1) {
			named = append(named, strings.Fields(m[1])...)
		}
		for _, section := range strings.Split(readme, "\n## ")[1:] {
			if cmd.sections == nil || !cmd.sections.MatchString(section) {
				continue
			}
			for _, m := range regexp.MustCompile("`(-[^`]*)`").FindAllStringSubmatch(section, -1) {
				named = append(named, strings.Fields(m[1])...)
			}
		}
		checked := 0
		for _, tok := range named {
			if len(tok) < 2 || tok[0] != '-' || tok[1] < 'a' || tok[1] > 'z' {
				continue // an argument: a path, -1, or "-" for stdout
			}
			if !flags[tok[1:]] {
				t.Errorf("README attributes %s to %s, but run defines no such flag", tok, cmd.name)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("no %s flag found in README; the patterns are stale", cmd.name)
		}
	}
	routes := sourceNames(t, "internal/server/handlers.go", `mux\.HandleFunc\("(?:[A-Z]+ )?(/[^"]*)"`)
	for _, route := range regexp.MustCompile(`/(?:v1|cluster|chaos)/[\w/-]*`).FindAllString(readme, -1) {
		if !routes[route] {
			t.Errorf("README names route %s, but handlers.go registers no such route", route)
		}
	}
}

// sourceNames returns the first submatch of every match of pattern in the
// Go source file path.
func sourceNames(t *testing.T, path, pattern string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(string(src), -1) {
		names[m[1]] = true
	}
	if len(names) == 0 {
		t.Fatalf("no names matched %s in %s; the pattern is stale", pattern, path)
	}
	return names
}

// TestReadmeNamesRealIdentifiers keeps the documented API honest: every
// approxsel.Name that README or a file under examples/ mentions must be an
// exported identifier of the package.
func TestReadmeNamesRealIdentifiers(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					exported[d.Name.Name] = d.Name.IsExported()
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						exported[sp.Name.Name] = sp.Name.IsExported()
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							exported[n.Name] = n.IsExported()
						}
					}
				}
			}
		}
	}
	if !exported["OpenCorpus"] {
		t.Fatal("package scope lacks OpenCorpus; the parse is stale")
	}
	docs := []string{"README.md"}
	if err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			docs = append(docs, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`\bapproxsel\.([A-Z]\w*)`).FindAllStringSubmatch(string(data), -1) {
			if !exported[m[1]] {
				t.Errorf("%s names approxsel.%s, which the package does not export", path, m[1])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no approxsel.Name found in README or examples; the pattern is stale")
	}
}
