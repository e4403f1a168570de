package csvparse

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"udp/internal/effclip"
	"udp/internal/machine"
	"udp/internal/sched"
	"udp/internal/workload"
)

func udpParse(t *testing.T, data []byte) []byte {
	t.Helper()
	im, err := effclip.Layout(BuildProgram(), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lane, err := machine.RunSingle(im, data)
	if err != nil {
		t.Fatal(err)
	}
	return lane.Output()
}

func TestParseBasics(t *testing.T) {
	in := []byte("a,b,c\n1,2,3\n")
	want := "a\x1fb\x1fc\x1e1\x1f2\x1f3\x1e"
	if got := string(Parse(in)); got != want {
		t.Fatalf("Parse = %q, want %q", got, want)
	}
	if got := string(udpParse(t, in)); got != want {
		t.Fatalf("UDP parse = %q, want %q", got, want)
	}
}

func TestQuotedFields(t *testing.T) {
	in := []byte("x,\"a,b\",y\n\"he said \"\"hi\"\"\",z\n")
	rows := Rows(Parse(in))
	want := [][]string{{"x", "a,b", "y"}, {`he said "hi"`, "z"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows %q", rows)
	}
	if !bytes.Equal(Parse(in), udpParse(t, in)) {
		t.Fatal("UDP and CPU tokenizations differ")
	}
}

func TestCRLF(t *testing.T) {
	in := []byte("a,b\r\nc,d\r\n")
	rows := Rows(Parse(in))
	want := [][]string{{"a", "b"}, {"c", "d"}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows %q", rows)
	}
}

// TestAgainstStdlib validates both parsers against encoding/csv on all three
// synthetic datasets.
func TestAgainstStdlib(t *testing.T) {
	datasets := [][]byte{
		workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 50, Seed: 1}),
		workload.TaxiCSV(workload.CSVSpec{Name: "taxi", Rows: 50, Seed: 2}),
		workload.FoodCSV(workload.CSVSpec{Name: "food", Rows: 30, Seed: 3}),
	}
	for di, data := range datasets {
		r := csv.NewReader(strings.NewReader(string(data)))
		r.FieldsPerRecord = -1
		want, err := r.ReadAll()
		if err != nil {
			t.Fatalf("dataset %d: stdlib csv: %v", di, err)
		}
		cpu := Rows(Parse(data))
		if !reflect.DeepEqual(cpu, want) {
			t.Fatalf("dataset %d: CPU FSM disagrees with encoding/csv\n got %q\nwant %q",
				di, firstDiff(cpu, want), "")
		}
		udp := Rows(udpParse(t, data))
		if !reflect.DeepEqual(udp, want) {
			t.Fatalf("dataset %d: UDP disagrees with encoding/csv: %s", di, firstDiff(udp, want))
		}
	}
}

func firstDiff(a, b [][]string) string {
	for i := range a {
		if i >= len(b) {
			return "extra row " + strings.Join(a[i], "|")
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return "row " + strings.Join(a[i], "|") + " vs " + strings.Join(b[i], "|")
		}
	}
	return "row-count mismatch"
}

// TestParallelShards checks record-aligned sharding reassembles exactly.
func TestParallelShards(t *testing.T) {
	data := workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 400, Seed: 4})
	im, err := effclip.Layout(BuildProgram(), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := machine.SplitRecords(data, 16, '\n')
	res, err := sched.Run(context.Background(), im, sched.Slice(shards), sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output(), Parse(data)) {
		t.Fatal("parallel UDP output differs from CPU tokenization")
	}
	if res.Shards != len(shards) {
		t.Fatalf("shards %d, want %d", res.Shards, len(shards))
	}
}

// TestCyclesPerByte pins the kernel's cycle cost to the expected
// multi-way-dispatch budget (about 2-3 cycles per input byte).
func TestCyclesPerByte(t *testing.T) {
	data := workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 500, Seed: 5})
	im, err := effclip.Layout(BuildProgram(), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lane, err := machine.RunSingle(im, data)
	if err != nil {
		t.Fatal(err)
	}
	cpb := float64(lane.Stats().Cycles) / float64(len(data))
	if cpb < 1.5 || cpb > 4.0 {
		t.Fatalf("cycles/byte = %.2f, outside [1.5,4.0]", cpb)
	}
}

// TestParseSepPipe pins the configurable separator: pipe-delimited input
// tokenizes without corrupting fields that contain commas, and the UDP
// program built with the same separator produces identical output.
func TestParseSepPipe(t *testing.T) {
	data := []byte("a|b,c|d\n1|\"x|y\"|2\n")
	tok := ParseSep(data, '|')
	rows := Rows(tok)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][1] != "b,c" {
		t.Fatalf("comma-bearing field corrupted: %q", rows[0][1])
	}
	if rows[1][1] != "x|y" {
		t.Fatalf("quoted separator not preserved: %q", rows[1][1])
	}

	im, err := effclip.Layout(BuildProgramSep('|'), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lane, err := machine.RunSingle(im, data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lane.Output(), tok) {
		t.Fatalf("UDP tokenization %q differs from CPU %q", lane.Output(), tok)
	}
}
