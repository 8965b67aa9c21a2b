package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evprop"
)

// writeModelFile serializes a builtin network into dir in the requested
// format so LoadDir exercises both parsers.
func writeModelFile(t *testing.T, dir, name string, net *evprop.Network, xml bool) string {
	t.Helper()
	ext := ".bif"
	if xml {
		ext = ".xml"
	}
	path := filepath.Join(dir, name+ext)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if xml {
		err = net.WriteXMLBIF(f, name, nil)
	} else {
		err = net.WriteBIF(f, name, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSourceInstantiate(t *testing.T) {
	for _, src := range []Source{
		LiteralSource(evprop.Asia(), "asia"),
		netSource(t, evprop.Sprinkler()),
		FileSource(writeModelFile(t, t.TempDir(), "student", evprop.Student(), true)),
	} {
		n, err := src.Instantiate()
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	if _, err := (Source{Kind: "literal"}).Instantiate(); err == nil {
		t.Error("literal source without a network accepted")
	}
	if _, err := (Source{Kind: "bogus"}).Instantiate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := FileSource("/does/not/exist.bif").Instantiate(); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFileSourceFormats(t *testing.T) {
	dir := t.TempDir()
	bif := writeModelFile(t, dir, "asia", evprop.Asia(), false)
	xml := writeModelFile(t, dir, "asia2", evprop.Asia(), true)
	for _, path := range []string{bif, xml} {
		n, err := FileSource(path).Instantiate()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := len(n.Variables()); got != 8 {
			t.Errorf("%s: %d variables, want 8", path, got)
		}
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	writeModelFile(t, dir, "asia", evprop.Asia(), false)
	writeModelFile(t, dir, "sprinkler", evprop.Sprinkler(), true)
	// Non-model files are ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(evprop.Options{Workers: 2})
	defer r.Close()
	if err := r.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "asia" || names[1] != "sprinkler" {
		t.Fatalf("Names = %v", names)
	}
	for _, name := range names {
		if _, release, err := r.Acquire(name); err != nil {
			t.Errorf("%s: %v", name, err)
		} else {
			release()
		}
	}
}

func TestLoadDirErrors(t *testing.T) {
	r := New(evprop.Options{Workers: 1})
	defer r.Close()
	if err := r.LoadDir("/does/not/exist"); err == nil {
		t.Error("missing dir accepted")
	}
	empty := t.TempDir()
	if err := r.LoadDir(empty); err == nil || !strings.Contains(err.Error(), "no model files") {
		t.Errorf("empty dir error = %v", err)
	}
	dup := t.TempDir()
	writeModelFile(t, dup, "m", evprop.Asia(), false)
	writeModelFile(t, dup, "m", evprop.Asia(), true)
	if err := r.LoadDir(dup); err == nil || !strings.Contains(err.Error(), "defined by both") {
		t.Errorf("duplicate-name error = %v", err)
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "broken.bif"), []byte("not a bif"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadDir(bad); err == nil {
		t.Error("unparseable model accepted")
	}
}

// TestReloadPicksUpFileEdit: editing the file on disk and reloading
// publishes a new version built from the new contents.
func TestReloadPicksUpFileEdit(t *testing.T) {
	dir := t.TempDir()
	path := writeModelFile(t, dir, "m", rainNet(0.2), false)
	r := New(evprop.Options{Workers: 2})
	defer r.Close()
	if err := r.LoadSync("m", FileSource(path)); err != nil {
		t.Fatal(err)
	}
	v1, _ := r.Current("m")
	// Rewrite the file with different parameters, then reload.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rainNet(0.7).WriteBIF(f, "m", nil); err != nil {
		t.Fatal(err)
	}
	f.Close()
	done, err := r.Reload("m")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	v2, _ := r.Current("m")
	if v2.ID != v1.ID+1 {
		t.Fatalf("version %d after reload, want %d", v2.ID, v1.ID+1)
	}
	post, err := v2.Engine.Query(evprop.Evidence{"Wet": 1}, "Rain")
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := rainNet(0.7).ExactMarginal("Rain", evprop.Evidence{"Wet": 1})
	if post["Rain"][1] != oracle[1] {
		t.Errorf("reloaded posterior %v, want %v", post["Rain"], oracle)
	}
}
