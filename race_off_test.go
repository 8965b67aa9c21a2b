//go:build !race

package evprop

const raceEnabled = false
