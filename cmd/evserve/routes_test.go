package main

import (
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

// TestREADMERoutes holds the README's route block to the mux, both ways: every
// path it lists is a pattern the mux routes that path to, and every pattern
// mux registers — pprof and the catch-all aside — is listed.
func TestREADMERoutes(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(readme), "### HTTP serving")
	_, block, _ = strings.Cut(block, "```\n")
	block, _, _ = strings.Cut(block, "```")
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
