package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"evprop"
)

func TestParseEvidence(t *testing.T) {
	ev, err := parseEvidence("A=1, B=0,C=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 3 || ev["A"] != 1 || ev["B"] != 0 || ev["C"] != 2 {
		t.Errorf("ev = %v", ev)
	}
	if ev, err := parseEvidence(""); err != nil || len(ev) != 0 {
		t.Errorf("empty evidence: %v, %v", ev, err)
	}
	for _, bad := range []string{"A", "A=x", "=1", "A=1,B"} {
		if _, err := parseEvidence(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestBuildNetwork(t *testing.T) {
	for _, kind := range []string{"asia", "sprinkler", "student", "random"} {
		n, err := buildNetwork(kind, 10, 2, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", kind, err)
		}
	}
	if _, err := buildNetwork("bogus", 0, 0, 0, 0); err == nil {
		t.Error("accepted bogus network kind")
	}
}

// TestLoadNetworkXMLBIF: -bif picks the XMLBIF parser by extension, any case,
// as evserve's -models-dir and evreplay's -bif do, and the text parser for
// anything else.
func TestLoadNetworkXMLBIF(t *testing.T) {
	asia := evprop.Asia()
	var xml, text bytes.Buffer
	if err := asia.WriteXMLBIF(&xml, "asia", nil); err != nil {
		t.Fatal(err)
	}
	if err := asia.WriteBIF(&text, "asia", nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, doc := range map[string][]byte{
		"asia.xmlbif": xml.Bytes(), "ASIA.XML": xml.Bytes(), "asia.xml": xml.Bytes(), "asia.bif": text.Bytes(),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		net, err := loadNetwork(path, "bogus", 0, 0, 0, 0)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, want := net.Variables(), asia.Variables(); !slices.Equal(got, want) {
			t.Errorf("%s: variables %v, want %v", name, got, want)
		}
	}
	if _, err := loadNetwork(filepath.Join(dir, "missing.bif"), "asia", 0, 0, 0, 0); err == nil {
		t.Error("loaded a missing -bif file")
	}
	if net, err := loadNetwork("", "asia", 0, 0, 0, 0); err != nil || len(net.Variables()) != 8 {
		t.Errorf("no -bif: %v, %v", net, err)
	}
}
