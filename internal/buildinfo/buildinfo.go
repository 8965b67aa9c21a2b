// Package buildinfo carries the version identity shared by the binaries
// (evserve, evprop, evbench, evtop, evtrace): their -version flags and
// evserve's /v1/healthz body all report the same values.
package buildinfo

import (
	"fmt"
	"runtime"
)

// Version identifies the build. Overridable at link time:
//
//	go build -ldflags "-X evprop/internal/buildinfo.Version=v1.2.3" ./...
var Version = "dev"

// String renders the full identity line printed by the -version flags, e.g.
// "evserve dev (go1.22.1 linux/amd64)".
func String(binary string) string {
	return fmt.Sprintf("%s %s (%s %s/%s)", binary, Version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
