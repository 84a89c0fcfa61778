package dynacc_test

import (
	"go/ast"
	"go/build"
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

// censusCategories are the only reasons a function under internal/ may
// stay when no program links it. Each names who reads the function:
//
//	oracle     a read-out the whole-cluster oracle checks (ROADMAP item 1(a))
//	reference  an implementation tests compare the real one against
//	driver     engine stepping that tests need and no program does
//	pin        its only caller is a test that pins behaviour no other test pins
//	trap       kept only by the benchmark's alignment trap (item 5(c))
//	stringer   a String method that only test failure messages print
//	generator  a chaos dimension the scenario generator will draw (item 1(b))
var censusCategories = map[string]bool{
	"oracle": true, "reference": true, "driver": true, "pin": true,
	"trap": true, "stringer": true, "generator": true,
}

// TestLinkerCensus builds every program in the repository without
// inlining, so a function a program calls keeps its symbol, and fails on
// each non-test function under internal/ that none of them links, unless
// testdata/unlinked.txt names it with a category and the ROADMAP item
// that retires it. An allowlist entry that a program now links, or that
// no longer exists, fails too, so the list only shrinks.
func TestLinkerCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every program; skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(gobin, "build", "-gcflags=all=-l", "-o", bin+string(filepath.Separator),
		"./cmd/...", "./examples/...", "./benchmark")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	linked := linkedSymbols(t, gobin, bin)
	declared := declaredFuncs(t, "internal")
	allowed := readAllowlist(t, filepath.Join("testdata", "unlinked.txt"))

	for _, fn := range declared {
		switch linked := linked["dynacc/internal/"+fn]; {
		case linked && allowed[fn]:
			t.Errorf("testdata/unlinked.txt lists %s, but a program links it now: drop the line", fn)
		case !linked && !allowed[fn]:
			t.Errorf("no program links %s: delete it, move it into a _test.go file, or allowlist it in testdata/unlinked.txt", fn)
		}
	}
	known := make(map[string]bool, len(declared))
	for _, fn := range declared {
		known[fn] = true
	}
	for fn := range allowed {
		if !known[fn] {
			t.Errorf("testdata/unlinked.txt lists %s, which no longer exists: drop the line", fn)
		}
	}
}

// linkedSymbols returns every text symbol of the binaries in dir, with
// assembly's ".abi0" suffix and generic instantiations' "[...]" removed.
func linkedSymbols(t *testing.T, gobin, dir string) map[string]bool {
	t.Helper()
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("go build produced no binaries")
	}
	syms := make(map[string]bool)
	for _, b := range bins {
		out, err := exec.Command(gobin, "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := strings.TrimSuffix(strings.Join(f[2:], " "), ".abi0")
			syms[typeArgs.ReplaceAllString(name, "")] = true
		}
	}
	return syms
}

var typeArgs = regexp.MustCompile(`\[[^\]]*\]`)

// declaredFuncs lists the functions and methods declared in the non-test
// files that go/build selects for this platform under root, named as the
// linker names them minus "dynacc/internal/": "sim.Run",
// "arm.(*Client).Acquire", "core.Window.Contains".
func declaredFuncs(t *testing.T, root string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		prefix := filepath.ToSlash(rel) + "."
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				names = append(names, prefix+funcSymbol(fd))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// funcSymbol names fd the way the linker does within its package.
func funcSymbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// readAllowlist parses lines of "symbol category item N": a symbol as
// declaredFuncs names it, one of censusCategories, and the ROADMAP item
// that retires it. Blank lines and lines starting with # are comments.
func readAllowlist(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]bool)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !censusCategories[f[1]] || f[2] != "item" {
			t.Errorf("%s:%d: want \"symbol category item N\" with a category from censusCategories, got %q", path, i+1, line)
			continue
		}
		if allowed[f[0]] {
			t.Errorf("%s:%d: %s is listed twice", path, i+1, f[0])
		}
		allowed[f[0]] = true
	}
	return allowed
}
