package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"udp"
	"udp/internal/client"
	"udp/internal/compile"
	"udp/internal/etl"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/xmlparse"
	"udp/internal/workload"
)

// Corpus sizes. The large body is the issue's 120 000 lineitem rows
// (about 8.9 MB); the six kernel corpora follow internal/bench.kernelCases
// at scale 2 (copied, not imported: that package is a consolidation
// candidate and must not be able to change the benchmark).
const (
	defaultLargeRows  = 120000
	defaultKernelRows = 20000
	smallBodyBytes    = 4 << 10
	body64kBytes      = 64 << 10
)

// payload is one distinct input of a workload with everything needed to run
// it and to check the result.
type payload struct {
	// name is "small", "64k", "large" or a builtin kernel name.
	name string
	// program is the server builtin that transforms it.
	program string
	data    []byte
	// gz is data gzip-compressed once in set-up (large body only).
	gz []byte
	// sep and hasSep select the record chunker, as the server registry does
	// for the builtin.
	sep    byte
	hasSep bool
	img    *udp.Image
	// ref is the expected output: the memory interpreter's, which set-up
	// has checked to be identical on all three tiers.
	ref []byte
	// cycles is the sum of simulated lane cycles over the payload's shards.
	cycles uint64
}

// execOpts are the udp.Exec options that shard p the way the server does.
func (p *payload) execOpts(extra ...udp.ExecOption) []udp.ExecOption {
	if p.hasSep {
		extra = append(extra, udp.WithChunker(p.sep))
	}
	return extra
}

// compileStats sums what udp.Compile and the compiled-tier lowering did
// over the images a set-up built.
type compileStats struct {
	layout, lower time.Duration
	fused, slow   int
	imageWords    int
}

// buildImage lays prog out and lowers it, adding the cost to cs.
func buildImage(prog *udp.Program, cs *compileStats) (*udp.Image, error) {
	t0 := time.Now()
	im, err := udp.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", prog.Name, err)
	}
	t1 := time.Now()
	cp, err := compile.For(im)
	if err != nil {
		return nil, fmt.Errorf("lower %s: %w", prog.Name, err)
	}
	cs.layout += t1.Sub(t0)
	cs.lower += time.Since(t1)
	cs.fused += cp.FusedChains
	cs.slow += cp.SlowChains
	cs.imageWords += len(im.Words)
	return im, nil
}

// cutRecords trims data to at most max bytes ending on a sep boundary.
func cutRecords(data []byte, max int, sep byte) []byte {
	if len(data) <= max {
		return data
	}
	if idx := bytes.LastIndexByte(data[:max], sep); idx > 0 {
		return data[:idx+1]
	}
	return data[:max]
}

// lineitemPayloads generates the csvpipe inputs a workload asks for from one
// lineitem stream: the 4 KiB and 64 KiB cuts are prefixes of the large body,
// so a seed names the same bytes in every workload.
func lineitemPayloads(seed int64, largeRows int, small, k64, large bool, cs *compileStats) (map[string]*payload, error) {
	rows := 1024 // enough for the 64 KiB cut at about 74 bytes a row
	if large {
		rows = largeRows
	}
	data := etl.LineitemCSV(rows, seed)
	im, err := buildImage(csvparse.BuildProgramSep('|'), cs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*payload)
	add := func(name string, body []byte) *payload {
		p := &payload{name: name, program: "csvpipe", data: body, sep: '\n', hasSep: true, img: im}
		out[name] = p
		return p
	}
	if small {
		add("small", cutRecords(data, smallBodyBytes, '\n'))
	}
	if k64 {
		add("64k", cutRecords(data, body64kBytes, '\n'))
	}
	if large {
		p := add("large", data)
		if p.gz, err = client.GzipBytes(data); err != nil {
			return nil, fmt.Errorf("gzip large body: %w", err)
		}
	}
	return out, nil
}

// echoAssembly is the echo builtin (one stream state copying each symbol to
// the output) in the assembler's own syntax.
const echoAssembly = "program echo symbol 8\nstate s stream\n  majority -> s { out8 rsym }\n"

// kernelPayloads generates one corpus per builtin kernel.
func kernelPayloads(seed int64, rows int, cs *compileStats) ([]*payload, error) {
	echo, err := udp.ParseAssembly(echoAssembly)
	if err != nil {
		return nil, fmt.Errorf("echo assembly: %w", err)
	}
	hist, err := histogram.BuildProgramEmit(histogram.UniformEdges(16, 0, 1))
	if err != nil {
		return nil, fmt.Errorf("histogram16 program: %w", err)
	}
	crimes := workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: rows, Seed: seed})
	xmlRow := []byte(`<row a="1" b='x>y'><v>text &amp; more</v></row>` + "\n")
	cases := []struct {
		name   string
		prog   *udp.Program
		data   []byte
		hasSep bool
	}{
		{"echo", echo, workload.Text(workload.TextEnglish, rows*105, seed), false},
		{"csvparse", csvparse.BuildProgram(), crimes, true},
		{"csvpipe", csvparse.BuildProgramSep('|'), bytes.ReplaceAll(crimes, []byte{','}, []byte{'|'}), true},
		{"jsonparse", jsonparse.BuildProgram(), workload.JSONRecords(rows, seed), true},
		{"xmlparse", xmlparse.BuildProgram(), bytes.Repeat(xmlRow, rows), true},
		// The histogram's 8-byte keys need aligned shards; the default
		// fixed-size chunk is a multiple of 8.
		{"histogram16", hist, histogram.KeyBytes(workload.FloatColumn(rows*20, workload.DistUniform, 0, 1, seed)), false},
	}
	out := make([]*payload, 0, len(cases))
	for _, c := range cases {
		im, err := buildImage(c.prog, cs)
		if err != nil {
			return nil, err
		}
		out = append(out, &payload{name: c.name, program: c.name, data: c.data, sep: '\n', hasSep: c.hasSep, img: im})
	}
	return out, nil
}

// referenceTiers are the tiers the reference pass runs, the memory
// interpreter (the reference model) first.
var referenceTiers = []udp.Engine{udp.EngineInterp, udp.EngineDecoded, udp.EngineCompiled}

// reference runs p once on every tier through udp.Exec, sharded as the
// workloads shard it, and requires identical output and identical summed
// machine.Stats; csv kernels must also equal the CPU reference parser. It
// fills p.ref and p.cycles. The repo holds no hardware reference, so this
// checks the tiers against the model, not the model against silicon.
func reference(ctx context.Context, p *payload) error {
	var refStats udp.Stats
	for i, eng := range referenceTiers {
		var ran udp.Engine
		res, err := udp.Exec(ctx, p.img, bytes.NewReader(p.data), p.execOpts(
			udp.WithEngine(eng),
			udp.WithStatsHook(func(e udp.ShardEvent) { ran = e.Engine }),
		)...)
		if err != nil {
			return fmt.Errorf("reference %s on %s: %w", p.name, eng, err)
		}
		if ran != eng {
			return fmt.Errorf("reference %s: asked for %s, ran on %s", p.name, eng, ran)
		}
		if i == 0 {
			p.ref, refStats, p.cycles = res.Output(), res.Total, res.Total.Cycles
			continue
		}
		if !outputsEqual(res.Outputs, p.ref) {
			return fmt.Errorf("reference %s: %s output differs from %s", p.name, eng, referenceTiers[0])
		}
		if res.Total != refStats {
			return fmt.Errorf("reference %s: %s stats %+v differ from %s %+v", p.name, eng, res.Total, referenceTiers[0], refStats)
		}
	}
	switch p.program {
	case "csvparse":
		if !bytes.Equal(p.ref, csvparse.Parse(p.data)) {
			return fmt.Errorf("reference %s: output differs from csvparse.Parse", p.name)
		}
	case "csvpipe":
		if !bytes.Equal(p.ref, csvparse.ParseSep(p.data, '|')) {
			return fmt.Errorf("reference %s: output differs from csvparse.ParseSep", p.name)
		}
	}
	return nil
}

// outputsEqual reports whether the per-shard outputs, in shard order, spell
// want, without building the concatenation.
func outputsEqual(outs [][]byte, want []byte) bool {
	off := 0
	for _, o := range outs {
		if len(o) > len(want)-off || !bytes.Equal(o, want[off:off+len(o)]) {
			return false
		}
		off += len(o)
	}
	return off == len(want)
}

// corpusSHA256 hashes every generated input in a fixed order, so two runs
// can show they measured the same bytes.
func corpusSHA256(ps []*payload) string {
	h := sha256.New()
	for _, p := range ps {
		fmt.Fprintf(h, "%s %d\n", p.name, len(p.data))
		h.Write(p.data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simCyclesPerByte is simulated time: summed lane cycles over summed input
// bytes of the reference pass (not the makespan, which depends on which lane
// got which shard).
func simCyclesPerByte(ps []*payload) float64 {
	var cycles uint64
	var n int
	for _, p := range ps {
		cycles += p.cycles
		n += len(p.data)
	}
	if n == 0 {
		return 0
	}
	return float64(cycles) / float64(n)
}
