package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"evprop"
)

// Source describes where a model's network comes from, retained by the
// registry so Reload can rebuild the model later. File sources re-read
// the file on every compile (that is what makes POST /reload pick up an
// edited BIF); inline sources re-parse the retained upload bytes.
type Source struct {
	// Kind is one of "bif", "xmlbif", "inline-bif", "inline-xmlbif",
	// "literal".
	Kind string
	// Name describes a literal source in listings.
	Name string
	// Path locates a file source.
	Path string
	// Data holds an uploaded document for inline sources.
	Data []byte
	// net backs a literal source (an already-built in-memory network).
	net *evprop.Network
}

// LiteralSource wraps an already-built network — programmatic callers and
// tests. Reload recompiles the same in-memory network (networks are not
// mutated by serving, so versions may share one).
func LiteralSource(net *evprop.Network, desc string) Source {
	return Source{Kind: "literal", Name: desc, net: net}
}

// FileSource loads a BIF or XMLBIF file, picking the parser from the
// extension (.xml/.xmlbif → XMLBIF, anything else → BIF).
func FileSource(path string) Source {
	if isXMLPath(path) {
		return Source{Kind: "xmlbif", Path: path}
	}
	return Source{Kind: "bif", Path: path}
}

// InlineSource retains an uploaded document. xml selects the XMLBIF
// parser; otherwise the textual BIF parser.
func InlineSource(data []byte, xml bool) Source {
	kind := "inline-bif"
	if xml {
		kind = "inline-xmlbif"
	}
	return Source{Kind: kind, Data: append([]byte(nil), data...)}
}

func isXMLPath(path string) bool {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".xml", ".xmlbif":
		return true
	}
	return false
}

// String renders the source for listings ("bif:models/alarm.bif").
func (s Source) String() string {
	switch s.Kind {
	case "bif", "xmlbif":
		return s.Kind + ":" + s.Path
	case "inline-bif", "inline-xmlbif":
		return fmt.Sprintf("%s:%d bytes", s.Kind, len(s.Data))
	case "literal":
		return "literal:" + s.Name
	}
	return "unknown"
}

// Instantiate builds a fresh Network from the source. Each call returns a
// new instance: versions must never share mutable network state.
func (s Source) Instantiate() (*evprop.Network, error) {
	switch s.Kind {
	case "bif", "xmlbif":
		f, err := os.Open(s.Path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if s.Kind == "xmlbif" {
			net, _, err := evprop.ParseXMLBIF(f)
			return net, err
		}
		net, _, err := evprop.ParseBIF(f)
		return net, err
	case "inline-bif":
		net, _, err := evprop.ParseBIF(bytes.NewReader(s.Data))
		return net, err
	case "inline-xmlbif":
		net, _, err := evprop.ParseXMLBIF(bytes.NewReader(s.Data))
		return net, err
	case "literal":
		if s.net == nil {
			return nil, fmt.Errorf("registry: literal source has no network")
		}
		return s.net, nil
	}
	return nil, fmt.Errorf("registry: unknown source kind %q", s.Kind)
}

// modelExts are the file extensions LoadDir picks up.
func isModelFile(name string) bool {
	switch strings.ToLower(filepath.Ext(name)) {
	case ".bif", ".xml", ".xmlbif":
		return true
	}
	return false
}

// LoadDir registers every model file (*.bif, *.xml, *.xmlbif) in dir,
// named by file basename without extension, compiling them concurrently
// and waiting for all. It fails if any file fails to parse or compile, or
// if two files map to the same model name.
func (r *Registry) LoadDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type pending struct {
		name string
		done <-chan error
	}
	var loads []pending
	seen := map[string]string{}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && isModelFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, file := range names {
		name := strings.TrimSuffix(file, filepath.Ext(file))
		if prev, dup := seen[name]; dup {
			return fmt.Errorf("registry: model %q defined by both %s and %s", name, prev, file)
		}
		seen[name] = file
		done, err := r.Load(name, FileSource(filepath.Join(dir, file)))
		if err != nil {
			return fmt.Errorf("registry: %s: %w", file, err)
		}
		loads = append(loads, pending{name: name, done: done})
	}
	if len(loads) == 0 {
		return fmt.Errorf("registry: no model files (*.bif, *.xml) in %s", dir)
	}
	for _, p := range loads {
		if err := <-p.done; err != nil {
			return fmt.Errorf("registry: model %q: %w", p.name, err)
		}
	}
	return nil
}
