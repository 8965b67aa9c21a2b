package main

import (
	"flag"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"evprop"
)

// readmeBlock is the first fenced block of README.md after marker.
func readmeBlock(t *testing.T, marker string) string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), marker)
	if !ok {
		t.Fatalf("README.md has no %q", marker)
	}
	_, block, _ = strings.Cut(block, "```\n")
	block, _, _ = strings.Cut(block, "```")
	return block
}

// TestREADMERoutes holds the README's route block to the mux, both ways: every
// path it lists is a pattern the mux routes that path to, and every pattern
// mux registers — pprof and the catch-all aside — is listed.
func TestREADMERoutes(t *testing.T) {
	block := readmeBlock(t, "### HTTP serving")
	methods := []string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodDelete}
	listed := map[string]bool{}
	for _, line := range strings.Split(block, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && slices.Contains(methods, f[0]) {
			listed[f[1]] = true
		}
	}
	if len(listed) == 0 {
		t.Fatal("no route block under the README's HTTP serving heading")
	}

	mux := newMultiServer(evprop.Options{}).mux()
	for path := range listed {
		_, pattern := mux.Handler(httptest.NewRequest(http.MethodGet, strings.ReplaceAll(path, "{name}", "m"), nil))
		if pattern != path {
			t.Errorf("the README lists %s, which the mux routes to %q", path, pattern)
		}
	}

	// The patterns mux registers, read off its source: the first argument of
	// every route and HandleFunc call in it.
	fset := token.NewFileSet()
	f, err := goparser.ParseFile(fset, "server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	registered := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if fn, ok := n.(*ast.FuncDecl); ok {
			return fn.Name.Name == "mux"
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		pattern, _ := strconv.Unquote(lit.Value)
		if !strings.HasPrefix(pattern, "/v1/") {
			return true
		}
		registered++
		if !listed[pattern] {
			t.Errorf("the mux registers %s, which the README's route block does not list", pattern)
		}
		return true
	})
	if registered != len(listed) {
		t.Errorf("the mux registers %d /v1 patterns, the README lists %d", registered, len(listed))
	}
}

// TestREADMEFlags holds the README's flag block to flagSet, both ways: every
// flag it lists is declared, with the default it shows, and every declared
// flag is listed.
func TestREADMEFlags(t *testing.T) {
	fs := flagSet(&options{})
	listed := map[string]bool{}
	for _, line := range strings.Split(readmeBlock(t, "Its flags, each with its default"), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "-") {
			continue
		}
		name, def := f[0][1:], f[1]
		listed[name] = true
		if def == `""` {
			def = ""
		}
		if fl := fs.Lookup(name); fl == nil {
			t.Errorf("the README lists -%s, which evserve does not declare", name)
		} else if fl.DefValue != def {
			t.Errorf("the README shows -%s defaulting to %q, evserve to %q", name, def, fl.DefValue)
		}
	}
	fs.VisitAll(func(fl *flag.Flag) {
		if !listed[fl.Name] {
			t.Errorf("evserve declares -%s, which the README's flag block does not list", fl.Name)
		}
	})
}
