package evprop

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocumentedMakeTargets holds every `make <target>` that README.md and the
// verify skill name, in backticks or at the start of a line, to the Makefile's
// .PHONY list: a renamed or deleted target cannot stay documented.
func TestDocumentedMakeTargets(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, phony, ok := strings.Cut(string(makefile), ".PHONY:")
	if !ok {
		t.Fatal("the Makefile has no .PHONY list")
	}
	phony, _, _ = strings.Cut(phony, "\n")
	targets := strings.Fields(phony)

	named := regexp.MustCompile("(?m)(?:^|`)make ([a-z][a-z0-9-]*)")
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := named.FindAllStringSubmatch(string(text), -1)
		if len(found) == 0 {
			t.Errorf("%s names no make target", doc)
		}
		for _, m := range found {
			if !slices.Contains(targets, m[1]) {
				t.Errorf("%s names make %s, which the Makefile's .PHONY list lacks", doc, m[1])
			}
		}
	}
}

// TestRunListsNameTests holds every -run, -bench and -fuzz pattern of a go
// test command in the Makefile and the CI workflow to the test functions of
// the packages that command names: each alternative of a pattern — a whole
// name, or a prefix such as Slic — must match at least one Test (or Fuzz, for
// -run), Benchmark or Fuzz function there. A renamed or deleted test cannot
// leave a guard that quietly runs nothing. xxx and ^$, which select nothing
// on purpose, are exempt.
func TestRunListsNameTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	funcs := map[string][]string{} // by package directory
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "benchmark" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs[filepath.Dir(path)] = append(funcs[filepath.Dir(path)], m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{"run": {"Test", "Fuzz"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	flagArg := regexp.MustCompile(`-(run|bench|fuzz) ('[^']*'|\S+)`)
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			if !strings.Contains(line, " test ") || strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			var dirs []string
			for _, f := range strings.Fields(line) {
				if f = strings.TrimSuffix(f, ";"); f == "." || strings.HasPrefix(f, "./") {
					dirs = append(dirs, filepath.Clean(f))
				}
			}
			for _, m := range flagArg.FindAllStringSubmatch(line, -1) {
				pattern := strings.ReplaceAll(strings.Trim(m[2], "'"), "$$", "$") // make's escape
				if pattern == "xxx" || pattern == "^$" {
					continue
				}
				for _, alt := range strings.Split(pattern, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: -%s %q: %v", file, n+1, m[1], alt, err)
						continue
					}
					found := false
					for _, dir := range dirs {
						for _, name := range funcs[dir] {
							for _, kind := range kinds[m[1]] {
								found = found || strings.HasPrefix(name, kind) && re.MatchString(name)
							}
						}
					}
					if !found {
						t.Errorf("%s:%d: -%s %q names no %s function in %v", file, n+1, m[1], alt, strings.Join(kinds[m[1]], "/"), dirs)
					}
				}
			}
		}
	}
}
