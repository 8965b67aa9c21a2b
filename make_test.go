package evprop

import (
	"os"
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
