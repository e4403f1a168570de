package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"udp"
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
	for _, kernel := range []string{"echo", "csvparse", "csvpipe", "jsonparse", "xmlparse", "histogram16"} {
		prefix := "kernel " + kernel + ": states="
		i := strings.Index(out, prefix)
		if i < 0 {
			t.Fatalf("no summary line for %s:\n%s", kernel, out)
		}
		rest := out[i+len(prefix):]
		if len(rest) == 0 || rest[0] == '0' {
			t.Fatalf("kernel %s profiled zero states: %q", kernel, out[i:i+60])
		}
		// Every builtin lowers to a byte-step table with rows.
		if j := strings.Index(rest, "kernel "); j >= 0 {
			rest = rest[:j]
		}
		if !strings.Contains(rest, "  table rows=") || strings.Contains(rest, "table rows=0 ") {
			t.Fatalf("kernel %s: no table rows line in its profile:\n%s", kernel, rest)
		}
	}
	if !strings.Contains(out, "hot states") || !strings.Contains(out, "dispatch mix:") {
		t.Fatalf("profile rendering missing tables:\n%s", out)
	}
}

// TestKernelCasesOnEveryTier runs each profiled kernel case on the three
// execution tiers: every shard must run on the tier asked for (the compiled
// tier must not degrade on a builtin kernel), and the output bytes and
// summed machine counters must be identical across tiers.
func TestKernelCasesOnEveryTier(t *testing.T) {
	cases, err := kernelCases(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			im, err := udp.Compile(c.prog)
			if err != nil {
				t.Fatal(err)
			}
			var ref *udp.ExecResult
			for _, eng := range []udp.Engine{udp.EngineInterp, udp.EngineDecoded, udp.EngineCompiled} {
				seen := 0
				opts := []udp.ExecOption{
					udp.WithEngine(eng),
					udp.WithStatsHook(func(e udp.ShardEvent) {
						seen++
						if e.Engine != eng {
							t.Errorf("%v run: shard %d ran on %v", eng, e.Shard, e.Engine)
						}
					}),
				}
				if c.hasSep {
					opts = append(opts, udp.WithChunker(c.sep))
				}
				res, err := udp.Exec(context.Background(), im, bytes.NewReader(c.input), opts...)
				if err != nil {
					t.Fatalf("%v: %v", eng, err)
				}
				if seen == 0 || seen != res.Shards {
					t.Fatalf("%v: hook saw %d of %d shards", eng, seen, res.Shards)
				}
				if res.InputBytes != len(c.input) {
					t.Fatalf("%v: streamed %d of %d bytes", eng, res.InputBytes, len(c.input))
				}
				if ref == nil {
					ref = res
					continue
				}
				if !bytes.Equal(res.Output(), ref.Output()) {
					t.Errorf("%v output differs from interp (%d vs %d bytes)", eng, len(res.Output()), len(ref.Output()))
				}
				if res.Total != ref.Total {
					t.Errorf("%v stats differ from interp:\n got %+v\nwant %+v", eng, res.Total, ref.Total)
				}
			}
		})
	}
}
