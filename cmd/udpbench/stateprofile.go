package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"udp"
	"udp/internal/builtins"
	"udp/internal/compile"
)

// stateProfile runs every builtin kernel once on the executor, over its
// catalogue corpus of scale MiB, with the automaton profiler attached and
// renders each kernel's state flame profile — ranked hot states, dispatch
// and action mixes — to w, followed by the coverage of its compiled
// byte-step table: rows, exit entries and bytes. CI greps the per-kernel
// summary lines ("kernel csvparse: states=N dispatches=M ...") and the
// table lines ("table rows=N exits=M bytes=B").
func stateProfile(scale int, seed int64, top int, w io.Writer) error {
	if scale < 1 {
		scale = 1
	}
	for _, b := range builtins.All() {
		im, err := udp.Compile(b.Build())
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		prof := udp.NewProfile(b.Name, im)
		opts := []udp.ExecOption{udp.WithProfile(prof)}
		// Fixed-size shards are cut at the default chunk size, a multiple
		// of every builtin's alignment.
		if b.Chunk.HasSep {
			opts = append(opts, udp.WithChunker(b.Chunk.Sep))
		}
		if _, err := udp.Exec(context.Background(), im, bytes.NewReader(b.Corpus(scale<<20, seed)), opts...); err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		prof.Snapshot().Render(w, top)
		if cp, err := compile.For(im); err == nil && cp.Table != nil {
			fmt.Fprintf(w, "  table rows=%d exits=%d bytes=%d\n", len(cp.Table.Rows), cp.Table.Exits, cp.Table.Size())
		} else {
			fmt.Fprintln(w, "  table none")
		}
	}
	return nil
}
