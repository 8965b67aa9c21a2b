// Command evprop runs exact inference on a Bayesian network from the
// command line.
//
// Usage:
//
//	evprop -network asia -evidence XRay=1,Smoke=0 -query Lung,Bronc
//	evprop -network random -nodes 40 -states 2 -parents 3 -seed 7 -query all
//	evprop -bif model.bif -evidence Node=1 -query all
//
// Flags select the scheduler and the worker count, mirroring the public evprop
// package's Options.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"evprop"
	"evprop/internal/buildinfo"
	"evprop/internal/registry"
)

func main() {
	var (
		network   = flag.String("network", "asia", "network: asia, sprinkler, student, random")
		bifFile   = flag.String("bif", "", "load the network from a BIF file (.xml/.xmlbif, any case: XMLBIF; otherwise text BIF) instead of -network")
		nodes     = flag.Int("nodes", 30, "random network: node count")
		states    = flag.Int("states", 2, "random network: states per variable")
		parents   = flag.Int("parents", 3, "random network: max parents per node")
		seed      = flag.Int64("seed", 1, "random network: generator seed")
		evidence  = flag.String("evidence", "", "comma-separated Name=state observations")
		query     = flag.String("query", "all", "comma-separated variables to query, or 'all'")
		scheduler = flag.String("scheduler", evprop.SchedulerCollaborative, "scheduler: collaborative, serial")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		mpe       = flag.Bool("mpe", false, "also report the most probable explanation")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("evprop"))
		return
	}

	net, err := loadNetwork(*bifFile, *network, *nodes, *states, *parents, *seed)
	if err != nil {
		fatal(err)
	}
	if *bifFile != "" {
		*network = *bifFile
	}
	eng, err := net.Compile(evprop.Options{Workers: *workers, Scheduler: *scheduler})
	if err != nil {
		fatal(err)
	}

	ev, err := parseEvidence(*evidence)
	if err != nil {
		fatal(err)
	}

	nc, mw := eng.Cliques()
	fmt.Printf("network %s: %d variables, junction tree with %d cliques (max width %d)\n",
		*network, len(net.Variables()), nc, mw)

	pe, err := eng.ProbabilityOfEvidence(ev)
	if err != nil {
		fatal(err)
	}
	if len(ev) > 0 {
		fmt.Printf("P(evidence) = %.6g\n", pe)
		if pe == 0 {
			fatal(fmt.Errorf("evidence has zero probability; posteriors undefined"))
		}
	}

	var queryVars []string
	if *query == "all" {
		for _, name := range net.Variables() {
			if _, fixed := ev[name]; !fixed {
				queryVars = append(queryVars, name)
			}
		}
	} else {
		queryVars = strings.Split(*query, ",")
	}
	post, err := eng.Query(ev, queryVars...)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(post))
	for name := range post {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("P(%s | e) =", name)
		for _, p := range post[name] {
			fmt.Printf(" %.6f", p)
		}
		fmt.Println()
	}

	if *mpe {
		assignment, p, err := eng.MostProbableExplanation(ev)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("most probable explanation (P = %.6g):\n", p)
		mpeNames := make([]string, 0, len(assignment))
		for name := range assignment {
			mpeNames = append(mpeNames, name)
		}
		sort.Strings(mpeNames)
		for _, name := range mpeNames {
			fmt.Printf("  %s = %d\n", name, assignment[name])
		}
	}
}

// loadNetwork is the network the flags select: the -bif file when one is
// named, read by the parser its extension selects as evserve's -models-dir
// and evreplay's -bif do, and the built-in kind otherwise.
func loadNetwork(bifFile, kind string, nodes, states, parents int, seed int64) (*evprop.Network, error) {
	if bifFile != "" {
		return registry.FileSource(bifFile).Instantiate()
	}
	return buildNetwork(kind, nodes, states, parents, seed)
}

func buildNetwork(kind string, nodes, states, parents int, seed int64) (*evprop.Network, error) {
	switch kind {
	case "asia":
		return evprop.Asia(), nil
	case "sprinkler":
		return evprop.Sprinkler(), nil
	case "student":
		return evprop.Student(), nil
	case "random":
		return evprop.RandomNetwork(nodes, states, parents, seed), nil
	default:
		return nil, fmt.Errorf("unknown network %q", kind)
	}
}

func parseEvidence(s string) (evprop.Evidence, error) {
	ev := evprop.Evidence{}
	if s == "" {
		return ev, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(pair, "=")
		if !ok || strings.TrimSpace(name) == "" {
			return nil, fmt.Errorf("evidence %q is not Name=state", pair)
		}
		state, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("evidence %q: %v", pair, err)
		}
		ev[strings.TrimSpace(name)] = state
	}
	return ev, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evprop:", err)
	os.Exit(1)
}
