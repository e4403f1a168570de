package builtins_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"udp"
	"udp/internal/builtins"
)

// TestCatalogueOnEveryTier runs each builtin's corpus through udp.Exec
// sharded by the builtin's own chunk spec, on all three tiers and at
// several chunk sizes. Every shard must run on the tier asked for (the
// compiled tier must not degrade on a builtin), the output must equal the
// builtin's host reference (or, without one, its one-shard interpreter
// output), and the summed machine counters must agree across tiers.
func TestCatalogueOnEveryTier(t *testing.T) {
	const corpusBytes = 64 << 10
	tiers := []udp.Engine{udp.EngineInterp, udp.EngineDecoded, udp.EngineCompiled}
	for _, b := range builtins.All() {
		t.Run(b.Name, func(t *testing.T) {
			im, err := udp.Compile(b.Build())
			if err != nil {
				t.Fatal(err)
			}
			in := b.Corpus(corpusBytes, 7)
			if len(in) == 0 || len(in) > corpusBytes {
				t.Fatalf("corpus is %d bytes, want (0, %d]", len(in), corpusBytes)
			}
			var want []byte
			if b.Reference != nil {
				want = b.Reference(in)
			} else {
				res, err := udp.Exec(context.Background(), im, bytes.NewReader(in),
					udp.WithEngine(udp.EngineInterp), udp.WithChunkBytes(len(in)))
				if err != nil {
					t.Fatal(err)
				}
				if res.Shards != 1 {
					t.Fatalf("one-shard run took %d shards", res.Shards)
				}
				want = res.Output()
			}
			for _, chunk := range []int{512, 4 << 10, 0} {
				var total *udp.Stats
				for _, eng := range tiers {
					res := execSharded(t, im, b.Chunk, chunk, eng, in)
					name := fmt.Sprintf("%v chunk=%d", eng, chunk)
					if !bytes.Equal(res.Output(), want) {
						t.Errorf("%s: output (%d bytes) differs from the reference (%d bytes)", name, len(res.Output()), len(want))
					}
					if total == nil {
						total = &res.Total
					} else if res.Total != *total {
						t.Errorf("%s: stats differ from interp:\n got %+v\nwant %+v", name, res.Total, *total)
					}
				}
			}
		})
	}
}

// execSharded runs in on one tier, sharded as the server shards a request
// for a program with this chunk spec (chunk 0 is the default size), and
// checks that every shard ran on that tier.
func execSharded(t *testing.T, im *udp.Image, spec builtins.ChunkSpec, chunk int, eng udp.Engine, in []byte) *udp.ExecResult {
	t.Helper()
	if a := spec.Align; a > 0 {
		if chunk <= 0 {
			chunk = udp.DefaultChunkBytes
		}
		chunk -= chunk % a
	}
	seen := 0
	opts := []udp.ExecOption{
		udp.WithEngine(eng),
		udp.WithStatsHook(func(e udp.ShardEvent) {
			seen++
			if e.Engine != eng {
				t.Errorf("%v run, chunk %d: shard %d ran on %v", eng, chunk, e.Shard, e.Engine)
			}
		}),
	}
	if chunk > 0 {
		opts = append(opts, udp.WithChunkBytes(chunk))
	}
	if spec.HasSep {
		opts = append(opts, udp.WithChunker(spec.Sep))
	}
	res, err := udp.Exec(context.Background(), im, bytes.NewReader(in), opts...)
	if err != nil {
		t.Fatalf("%v chunk=%d: %v", eng, chunk, err)
	}
	if seen == 0 || seen != res.Shards {
		t.Fatalf("%v chunk=%d: hook saw %d of %d shards", eng, chunk, seen, res.Shards)
	}
	if res.InputBytes != len(in) {
		t.Fatalf("%v chunk=%d: streamed %d of %d bytes", eng, chunk, res.InputBytes, len(in))
	}
	return res
}

// TestLookup checks the catalogue's order and that Lookup finds every entry.
func TestLookup(t *testing.T) {
	if got, want := builtins.Names(), "echo, csvparse, csvpipe, jsonparse, xmlparse, histogram16"; got != want {
		t.Fatalf("Names() = %q, want %q", got, want)
	}
	for _, b := range builtins.All() {
		if got, ok := builtins.Lookup(b.Name); !ok || got.Name != b.Name {
			t.Errorf("Lookup(%q) = %q, %v", b.Name, got.Name, ok)
		}
	}
	if _, ok := builtins.Lookup("no-such-kernel"); ok {
		t.Error("Lookup found an unknown name")
	}
}
