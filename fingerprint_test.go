package evprop

import "testing"

// TestFingerprint: an engine's fingerprint is this build's compile scheme
// and its resolved Workers, and its String form parses back.
func TestFingerprint(t *testing.T) {
	eng, err := Asia().Compile(Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	fp := eng.Fingerprint()
	if fp != (Fingerprint{Scheme: CompileScheme, Workers: 3}) || fp.String() != "scheme=2 workers=3" {
		t.Fatalf("fingerprint %+v (%q)", fp, fp)
	}
	if back, err := ParseFingerprint(fp.String()); err != nil || back != fp {
		t.Errorf("ParseFingerprint(%q) = %+v, %v", fp, back, err)
	}
	for _, bad := range []string{"", "scheme=2", "scheme=2 workers=3 ", "scheme=02 workers=3", "workers=3 scheme=2"} {
		if _, err := ParseFingerprint(bad); err == nil {
			t.Errorf("ParseFingerprint(%q) accepted", bad)
		}
	}
}
