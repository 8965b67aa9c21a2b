package evprop

import "fmt"

// CompileScheme numbers the choices that set an answer's bits besides the
// model bytes, the evidence and Workers: the elimination order, the join
// tree, the table layout and the numeric scheme. A change that moves any
// answer's bits bumps it, so that a recorded answer is only ever compared
// with one computed the same way.
//
//   - 1: min-fill with ties to the lowest variable id; the cliques joined by
//     the first maximum-|sep| edge Prim meets.
//   - 2: the cheapest in message cost of bayesnet.JoinTreeCandidates — ties
//     to the lowest id or to the smaller eliminated clique, and among
//     maximum-|sep| spanning trees the one of least message cost.
//   - 3: the same trees, cut without the collect Divide's weight: wide60's
//     distribute Marginalize over edge 31 runs whole at two workers.
const CompileScheme = 3

// Fingerprint is what an engine's answers depend on besides the model bytes
// and the evidence: the compile scheme, and the Workers its task graph is
// partitioned for (sched.Split cuts tasks by the worker count, and a cut
// task sums in pieces). Two engines with one fingerprint answer one query
// with the same bits whatever their other Options, Lazy excepted: a lazy
// engine agrees with an eager one to floating-point tolerance only. It
// prints as "scheme=3 workers=4".
type Fingerprint struct {
	Scheme  int
	Workers int
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("scheme=%d workers=%d", f.Scheme, f.Workers)
}

// ParseFingerprint reads a Fingerprint's String form.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	if _, err := fmt.Sscanf(s, "scheme=%d workers=%d", &f.Scheme, &f.Workers); err != nil || f.String() != s {
		return Fingerprint{}, fmt.Errorf("evprop: malformed fingerprint %q", s)
	}
	return f, nil
}

// Fingerprint returns the engine's fingerprint: this build's CompileScheme
// and the engine's resolved Workers.
func (e *Engine) Fingerprint() Fingerprint {
	return Fingerprint{Scheme: CompileScheme, Workers: e.inner.Options().Workers}
}
