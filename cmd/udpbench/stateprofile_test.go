package main

import (
	"bytes"
	"strings"
	"testing"

	"udp/internal/builtins"
)

// TestStateProfile runs the profiled kernel suite at scale 1 and checks each
// kernel produced a non-empty flame profile — the same invariant CI greps
// for on udpbench -stateprofile output.
func TestStateProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := stateProfile(1, 7, 5, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, b := range builtins.All() {
		prefix := "kernel " + b.Name + ": states="
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Fatalf("no summary line for %s:\n%s", b.Name, out)
		}
		rest := out[i+len(prefix):]
		if len(rest) == 0 || rest[0] == '0' {
			t.Fatalf("kernel %s profiled zero states: %q", b.Name, out[i:i+60])
		}
		// Every builtin lowers to a byte-step table with rows.
		if j := strings.Index(rest, "kernel "); j >= 0 {
			rest = rest[:j]
		}
		if !strings.Contains(rest, "  table rows=") || strings.Contains(rest, "table rows=0 ") {
			t.Fatalf("kernel %s: no table rows line in its profile:\n%s", b.Name, rest)
		}
	}
	if !strings.Contains(out, "hot states") || !strings.Contains(out, "dispatch mix:") {
		t.Fatalf("profile rendering missing tables:\n%s", out)
	}
}
