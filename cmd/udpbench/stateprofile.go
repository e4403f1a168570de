package main

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"udp"
	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/xmlparse"
	"udp/internal/workload"
)

// kernelCase is one builtin kernel plus a representative workload.
type kernelCase struct {
	name   string
	prog   *core.Program
	input  []byte
	sep    byte
	hasSep bool
}

// kernelCases builds the builtin-kernel workload suite at the given scale.
func kernelCases(scale int, seed int64) ([]kernelCase, error) {
	crimes := workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 10000 * scale, Seed: seed})
	edges := histogram.UniformEdges(16, 0, 1)
	histProg, err := histogram.BuildProgramEmit(edges)
	if err != nil {
		return nil, err
	}
	return []kernelCase{
		{"echo", echoProgram(), workload.Text(workload.TextEnglish, scale<<20, seed), 0, false},
		{"csvparse", csvparse.BuildProgram(), crimes, '\n', true},
		{"csvpipe", csvparse.BuildProgramSep('|'),
			bytes.ReplaceAll(crimes, []byte{','}, []byte{'|'}), '\n', true},
		{"jsonparse", jsonparse.BuildProgram(), workload.JSONRecords(10000*scale, seed), '\n', true},
		{"xmlparse", xmlparse.BuildProgram(),
			bytes.Repeat([]byte(`<row a="1" b='x>y'><v>text &amp; more</v></row>`+"\n"), 10000*scale), '\n', true},
		// The histogram's 8-byte keys need aligned shards; the default
		// fixed-size chunk is a multiple of 8.
		{"histogram16", histProg, histogram.KeyBytes(
			workload.FloatColumn(200000*scale, workload.DistUniform, 0, 1, seed)), 0, false},
	}, nil
}

func echoProgram() *core.Program {
	p := core.NewProgram("echo", 8)
	s := p.AddState("s", core.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	return p
}

// stateProfile runs every builtin kernel once on the executor with the
// automaton profiler attached and renders each kernel's state flame profile
// — ranked hot states, dispatch and action mixes — to w, followed by the
// coverage of its compiled byte-step table: rows, exit entries and bytes.
// CI greps the per-kernel summary lines ("kernel csvparse: states=N
// dispatches=M ...") and the table lines ("table rows=N exits=M bytes=B").
func stateProfile(scale int, seed int64, top int, w io.Writer) error {
	if scale < 1 {
		scale = 1
	}
	cases, err := kernelCases(scale, seed)
	if err != nil {
		return err
	}
	for _, c := range cases {
		im, err := udp.Compile(c.prog)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		prof := udp.NewProfile(c.name, im)
		opts := []udp.ExecOption{udp.WithProfile(prof)}
		if c.hasSep {
			opts = append(opts, udp.WithChunker(c.sep))
		}
		if _, err := udp.Exec(context.Background(), im, bytes.NewReader(c.input), opts...); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
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
