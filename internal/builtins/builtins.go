// Package builtins is the one definition of each kernel served by name:
// its program, its chunk spec, a representative corpus and its host oracle.
// The server registry, udpbench, the loader and the tests all read it.
// Loading the package builds nothing; Build and Corpus do the work.
package builtins

import (
	"bytes"
	"fmt"
	"strings"

	"udp/internal/core"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/xmlparse"
	"udp/internal/workload"
)

// ChunkSpec tells the executor how to shard an input for a program.
type ChunkSpec struct {
	Sep    byte // record separator when HasSep: no record straddles two shards
	HasSep bool // record-aligned chunking; false means fixed-size shards
	Align  int  // when positive, shard sizes round down to a multiple (fixed-width records)
}

// Builtin is one served kernel.
type Builtin struct {
	Name  string               // addresses the kernel, e.g. in /v1/transform/{name}
	Build func() *core.Program // constructs its UDP program
	Chunk ChunkSpec            // how its input is sharded
	// Corpus generates a representative input of about size bytes, cut on
	// a record boundary.
	Corpus func(size int, seed int64) []byte
	// Reference is the host oracle: the kernel's output for an input,
	// sharded or not. Nil when the kernel has none.
	Reference func(in []byte) []byte
}

var newline = ChunkSpec{Sep: '\n', HasSep: true}

// xmlRow is the record the xmlparse corpus repeats.
var xmlRow = []byte(`<row a="1" b='x>y'><v>text &amp; more</v></row>` + "\n")

var all = []Builtin{
	{
		Name: "echo",
		Build: func() *core.Program {
			p := core.NewProgram("echo", 8)
			s := p.AddState("s", core.ModeStream)
			s.Majority(s, core.AOut8(core.RSym))
			return p
		},
		Corpus:    func(size int, seed int64) []byte { return workload.Text(workload.TextEnglish, size, seed) },
		Reference: func(in []byte) []byte { return in },
	},
	{
		Name:      "csvparse",
		Build:     csvparse.BuildProgram,
		Chunk:     newline,
		Corpus:    crimes,
		Reference: csvparse.Parse,
	},
	{
		Name:  "csvpipe",
		Build: func() *core.Program { return csvparse.BuildProgramSep('|') },
		Chunk: newline,
		Corpus: func(size int, seed int64) []byte {
			return bytes.ReplaceAll(crimes(size, seed), []byte{','}, []byte{'|'})
		},
		Reference: func(in []byte) []byte { return csvparse.ParseSep(in, '|') },
	},
	{
		Name:  "jsonparse",
		Build: jsonparse.BuildProgram,
		Chunk: newline,
		Corpus: func(size int, seed int64) []byte {
			return sized(size, 100, func(rows int) []byte { return workload.JSONRecords(rows, seed) })
		},
		Reference: jsonparse.Tokenize,
	},
	{
		Name:  "xmlparse",
		Build: xmlparse.BuildProgram,
		Chunk: newline,
		Corpus: func(size int, _ int64) []byte {
			return sized(size, len(xmlRow), func(rows int) []byte { return bytes.Repeat(xmlRow, rows) })
		},
		Reference: xmlparse.Tokenize,
	},
	{
		// The emitting histogram writes each key's bin index; its 8-byte
		// keys need aligned shards.
		Name: "histogram16",
		Build: func() *core.Program {
			p, err := histogram.BuildProgramEmit(HistogramEdges())
			if err != nil {
				panic(fmt.Sprintf("builtins: histogram16: %v", err))
			}
			return p
		},
		Chunk: ChunkSpec{Align: 8},
		Corpus: func(size int, seed int64) []byte {
			return histogram.KeyBytes(workload.FloatColumn(max(size/8, 1), workload.DistUniform, 0, 1, seed))
		},
	},
}

// HistogramEdges are histogram16's bin edges: 16 uniform bins over [0, 1).
func HistogramEdges() []float64 { return histogram.UniformEdges(16, 0, 1) }

// All returns the catalogue in its fixed order.
func All() []Builtin { return append([]Builtin(nil), all...) }

// Lookup finds a builtin by name.
func Lookup(name string) (Builtin, bool) {
	for _, b := range all {
		if b.Name == name {
			return b, true
		}
	}
	return Builtin{}, false
}

// Program builds the named builtin's program; it panics on an unknown name.
func Program(name string) *core.Program {
	b, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("builtins: no builtin %q (have %s)", name, Names()))
	}
	return b.Build()
}

// Names lists the builtins' names, comma-separated in catalogue order.
func Names() string {
	names := make([]string, len(all))
	for i, b := range all {
		names[i] = b.Name
	}
	return strings.Join(names, ", ")
}

// crimes is the csvparse corpus: the synthetic Chicago-crimes CSV.
func crimes(size int, seed int64) []byte {
	return sized(size, 100, func(rows int) []byte {
		return workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: rows, Seed: seed})
	})
}

// sized generates rows until gen's output holds size bytes (rowBytes is a
// lower bound on a row's length, so one call usually suffices) and cuts it
// on a record boundary.
func sized(size, rowBytes int, gen func(rows int) []byte) []byte {
	for rows := size/rowBytes + 1; ; rows *= 2 {
		if data := gen(rows); len(data) >= size {
			return cutRecords(data, size)
		}
	}
}

// cutRecords trims newline-separated records to the longest prefix of at
// most size bytes that ends on a newline, or to the first record when that
// alone is longer.
func cutRecords(data []byte, size int) []byte {
	if i := bytes.LastIndexByte(data[:size], '\n'); i >= 0 {
		return data[:i+1]
	}
	return data[:size+bytes.IndexByte(data[size:], '\n')+1]
}
