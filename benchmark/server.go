package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	evclient "evprop/client"
)

// serverFlags is the evserve configuration under test: two workers and a
// 32-entry result cache, every other flag at its default. The default
// -cache-size 1024 pins one propagation state per entry, which on the wide
// model is gigabytes.
var serverFlags = []string{"-workers", "2", "-cache-size", "32"}

// moduleDir finds the benchmark's own directory: the working directory
// under `go run -C benchmark .` and `go test`, ./benchmark from the root.
func moduleDir() (string, error) {
	for _, dir := range []string{".", "benchmark"} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.Contains(b, []byte("module evprop/benchmark")) {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/ (no evprop/benchmark go.mod found)")
}

// buildServer compiles cmd/evserve into the benchmark's work directory. The
// file lock keeps two concurrent runs (a test beside a manual run) from
// writing the binary at once; an up-to-date binary is not rewritten.
func buildServer(ctx context.Context, modDir string) (string, error) {
	binDir := filepath.Join(modDir, ".work", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	lock, err := os.OpenFile(filepath.Join(binDir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return "", err
	}
	defer lock.Close()
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX); err != nil {
		return "", fmt.Errorf("lock %s: %w", lock.Name(), err)
	}
	bin := filepath.Join(binDir, "evserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "evprop/cmd/evserve")
	cmd.Dir = modDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build evprop/cmd/evserve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running evserve process.
type server struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
	log    *os.File
	base   string
	flags  []string
	setup  time.Duration // exec to ready
	httpc  *http.Client
	client *evclient.Client
	bytes  *countingTransport
}

// readyTimeout bounds the wait for a started server to answer ready.
const readyTimeout = 30 * time.Second

var listenRe = regexp.MustCompile(`msg="\w+: listening".* addr=(\S+)`)

// evserveFlags is the flag line of an evserve on an ephemeral loopback port.
func evserveFlags(modelsDir string, extra ...string) []string {
	flags := append([]string{"-models-dir", modelsDir, "-addr", "127.0.0.1:0"}, serverFlags...)
	return append(flags, extra...)
}

// startServer execs a server (evserve, or this binary as the reference
// server) with its stderr (access log included) in logPath, reads the
// address it listens on from there, and waits until /v1/readyz answers 200,
// polling every millisecond. On any failure the process is killed before
// returning.
func startServer(ctx context.Context, bin string, flags []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, flags...)
	cmd.Stderr = logf
	// Should this process die without running its deferred stops (a panic on
	// a sender goroutine, SIGKILL), the kernel takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), log: logf, flags: flags}
	go func() {
		_ = cmd.Wait() // the exit status of a server that is told to stop carries nothing
		close(s.exited)
	}()
	if err := s.waitReady(ctx, logPath, start); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) waitReady(ctx context.Context, logPath string, start time.Time) error {
	deadline := start.Add(readyTimeout)
	for s.base == "" {
		b, err := os.ReadFile(logPath)
		if err != nil {
			return err
		}
		if m := listenRe.FindSubmatch(b); m != nil {
			s.base = "http://" + string(m[1])
			break
		}
		if err := s.alive(ctx, deadline); err != nil {
			return fmt.Errorf("%w; log:\n%s", err, b)
		}
		time.Sleep(time.Millisecond)
	}
	s.bytes = &countingTransport{rt: newTransport()}
	s.httpc = &http.Client{Transport: s.bytes}
	s.client = evclient.New(s.base, evclient.WithHTTPClient(s.httpc))
	for {
		if ok, err := s.client.Ready(ctx); err == nil && ok {
			s.setup = time.Since(start)
			return nil
		}
		if err := s.alive(ctx, deadline); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// alive fails once the process has exited, the context is done or the
// deadline has passed.
func (s *server) alive(ctx context.Context, deadline time.Time) error {
	select {
	case <-s.exited:
		return fmt.Errorf("evserve exited before becoming ready")
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	if time.Now().After(deadline) {
		return fmt.Errorf("evserve not ready after %s", readyTimeout)
	}
	return nil
}

// newTransport caps the load generator at two connections, the number of
// cores the benchmark is specified for.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after three seconds),
// waits for it and releases the log and the connections. It is safe to call
// twice.
func (s *server) stop() {
	if s == nil || s.cmd == nil {
		return
	}
	if s.bytes != nil {
		s.bytes.rt.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // "already exited" is fine
	select {
	case <-s.exited:
	case <-time.After(3 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.log.Close()
	s.cmd = nil
}

// cpuSeconds is the process's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after ")".
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", b)
	}
	const userHz = 100 // USER_HZ is 100 on every Linux ABI
	return (utime + stime) / userHz, nil
}

// memMB reads one kB field (VmHWM, VmRSS) of /proc/<pid>/status in MB.
func (s *server) memMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// countingTransport totals request and response body bytes, so the traced
// run can report bytes per query without the client library exposing them.
type countingTransport struct {
	rt        *http.Transport
	reqBytes  atomic.Int64
	respBytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if req.ContentLength > 0 {
		c.reqBytes.Add(req.ContentLength)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
