// Command evtop is a terminal dashboard for a running evserve: it consumes
// the GET /v1/stream Server-Sent-Events feed and redraws, once a second and
// in place, the server-wide totals and one block per model: QPS sparkline,
// latency quantiles, cache fill and hit rate, per-worker utilization and
// queue-depth bars, split counters.
//
//	evtop -url http://localhost:8080
//	evtop -url http://localhost:8080 -once   # one frame, no ANSI, then exit
//
// It has no dependencies beyond the standard library and degrades to a
// reconnect loop (with the connection error on the status line) whenever the
// server goes away. Ctrl-C exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	evclient "evprop/client"
	"evprop/internal/buildinfo"
)

// reconnectDelay paces the retry loop when the server is unreachable.
const reconnectDelay = time.Second

func main() {
	var (
		url     = flag.String("url", "http://localhost:8080", "evserve base URL")
		once    = flag.Bool("once", false, "print one frame (no ANSI) and exit")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("evtop"))
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, strings.TrimRight(*url, "/"), *once); err != nil {
		fmt.Fprintln(os.Stderr, "evtop:", err)
		os.Exit(1)
	}
}

// run drives the connect → stream → render loop until ctx is canceled, or
// until the first frame in -once mode.
func run(ctx context.Context, url string, once bool) error {
	m := &model{url: url}
	c := evclient.New(url)
	drew := false
	for {
		err := c.Stream(ctx, func(s evclient.Snapshot) bool {
			m.observe(s)
			if once {
				fmt.Print(m.frame())
				return false
			}
			draw(m, &drew)
			return true
		})
		if once && m.count > 0 {
			return nil
		}
		if ctx.Err() != nil {
			if drew {
				fmt.Print("\x1b[0m\n")
			}
			return nil
		}
		if once {
			return err
		}
		m.disconnected(err)
		draw(m, &drew)
		select {
		case <-ctx.Done():
			fmt.Print("\x1b[0m\n")
			return nil
		case <-time.After(reconnectDelay):
		}
	}
}

// draw repaints the frame in place: clear the screen once on the first
// frame, then home the cursor and rewrite each line (ESC[K erases what a
// previously longer line left behind).
func draw(m *model, drew *bool) {
	if !*drew {
		fmt.Print("\x1b[2J")
		*drew = true
	}
	var b strings.Builder
	b.WriteString("\x1b[H")
	for _, line := range strings.Split(strings.TrimRight(m.frame(), "\n"), "\n") {
		b.WriteString(line)
		b.WriteString("\x1b[K\n")
	}
	b.WriteString("\x1b[J") // clear anything below (worker count shrank)
	fmt.Print(b.String())
}
