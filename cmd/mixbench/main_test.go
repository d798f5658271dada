package main

import (
	"strings"
	"testing"

	"mix/internal/cli"
)

// TestRun renders one experiment as text and as markdown, and rejects
// an unknown experiment.
func TestRun(t *testing.T) {
	for _, args := range [][]string{{"-e", "E4"}, {"-e", "E4", "-md"}} {
		var out strings.Builder
		if err := run(args, &out, &out); err != nil || !strings.Contains(out.String(), "E4") {
			t.Fatalf("mixbench %q: %v\n%s", args, err, out.String())
		}
	}
	var out strings.Builder
	if err := run([]string{"-e", "E99"}, &out, &out); err == nil {
		t.Fatal("mixbench -e E99 succeeded")
	}
	if err := run([]string{"-bogus"}, &out, &out); cli.Exit("mixbench", err, &out) != 2 {
		t.Fatal("mixbench -bogus succeeded")
	}
}
