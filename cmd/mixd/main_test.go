package main

import (
	"flag"
	"slices"
	"testing"
)

// TestMixdFlags pins mixd's command line: adding, renaming or removing
// a knob is a deliberate edit of this list.
func TestMixdFlags(t *testing.T) {
	want := []string{
		"addr", "cache-max-bytes", "cluster", "cluster-flush", "cluster-health",
		"cluster-mode", "cluster-vnodes", "grace", "http", "idle", "lifetime",
		"log-json", "log-level", "max-sessions", "node", "peers", "prefetch",
		"slow-ms", "slow-ring", "src", "trace", "view",
	}
	fs := flag.NewFlagSet("mixd", flag.ContinueOnError)
	registerFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Fatalf("mixd flags = %d %q, want %d %q", len(got), got, len(want), want)
	}
}
