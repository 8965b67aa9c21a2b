package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// provenanceInfo says where and from what a result file came. Results are
// keyed by the host signature: numbers from different signatures are not
// comparable, and -compare says so.
type provenanceInfo struct {
	Host        hostInfo `json:"host"`
	GitCommit   string   `json:"git_commit"`
	Seed        int64    `json:"seed"`
	Seconds     float64  `json:"seconds"`
	ServerFlags string   `json:"evserve_flags"`
}

type hostInfo struct {
	Signature  string `json:"signature"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func provenance(modDir string, seed int64, seconds float64) provenanceInfo {
	h := hostInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	h.Signature = fmt.Sprintf("%s/%s %s x%d %s", h.GOOS, h.GOARCH, h.CPUModel, h.NumCPU, h.GoVersion)
	return provenanceInfo{Host: h, GitCommit: gitCommit(filepath.Dir(modDir)), Seed: seed, Seconds: seconds}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's HEAD, "unknown" outside a git repository. The
// ceiling keeps git from adopting a repository above the checkout.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
