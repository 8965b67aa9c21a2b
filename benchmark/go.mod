// The load benchmark is a module of its own so that the root module's
// build and test commands never include it. Its path sits under evprop/ so
// it may import evprop/internal/... for the per-layer spans.
module evprop/benchmark

go 1.22

require evprop v0.0.0

replace evprop => ../
