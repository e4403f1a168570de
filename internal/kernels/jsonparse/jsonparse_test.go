package jsonparse

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"udp/internal/effclip"
	"udp/internal/machine"
	"udp/internal/sched"
	"udp/internal/workload"
)

func udpTokenize(t *testing.T, data []byte) []byte {
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

func TestTokenizeBasics(t *testing.T) {
	in := []byte(`{"a": 12, "b":[true,null]}` + "\n")
	tok := Tokenize(in)
	want := "{\x01a\x02:12\x1f,\x01b\x02:[true\x1f,null\x1f]}"
	if string(tok) != want {
		t.Fatalf("tok %q, want %q", tok, want)
	}
}

func TestEscapesKeepStructuralInStrings(t *testing.T) {
	in := []byte(`{"k":"a{b,\"c\":d"}` + "\n")
	tok := Tokenize(in)
	// Braces/commas/colons inside string spans are content; outside them
	// exactly one '{' and one '}' must remain.
	outside := make([]byte, 0, len(tok))
	inStr := false
	for _, c := range tok {
		switch c {
		case StrOpen:
			inStr = true
		case StrClose:
			inStr = false
		default:
			if !inStr {
				outside = append(outside, c)
			}
		}
	}
	if bytes.Count(outside, []byte("{")) != 1 || bytes.Count(outside, []byte("}")) != 1 {
		t.Fatalf("structural leakage outside strings: %q", outside)
	}
	if !bytes.Contains(tok, []byte(`a{b,\"c\":d`)) {
		t.Fatalf("string content mangled: %q", tok)
	}
}

func TestUDPMatchesBaseline(t *testing.T) {
	inputs := [][]byte{
		workload.JSONRecords(300, 11),
		[]byte("{\"x\": -3.5e+2 }\n"),
		[]byte("[]\n"),
		[]byte("{\"deep\":{\"er\":[[1,2],{\"z\":\"\\\\\"}]}}\n"),
	}
	for i, in := range inputs {
		cpu := Tokenize(in)
		udp := udpTokenize(t, in)
		if !bytes.Equal(cpu, udp) {
			t.Fatalf("input %d: CPU and UDP token streams differ\ncpu=%q\nudp=%q", i, cpu, udp)
		}
	}
}

// TestTokenCountsMatchRealParser cross-checks our token classes against
// encoding/json's scanner on generated documents.
func TestTokenCountsMatchRealParser(t *testing.T) {
	data := workload.JSONRecords(100, 12)
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatal("generator produced invalid JSON")
		}
		var v map[string]interface{}
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatal(err)
		}
		tok := Tokenize(append(line, '\n'))
		s := Summarize(tok)
		// Each record: 7 keys + 1-2 string values; exactly 1 object and
		// 1 array by construction.
		if s.Objects != 1 || s.Arrays != 1 {
			t.Fatalf("objects %d arrays %d for %s", s.Objects, s.Arrays, line)
		}
		wantStrings := 7 + 1 // keys + type value
		if _, ok := v["note"].(string); ok {
			wantStrings++
		}
		if s.Strings != wantStrings {
			t.Fatalf("strings %d want %d for %s", s.Strings, wantStrings, line)
		}
	}
}

// TestCyclesPerByte pins the dispatch budget (one dispatch per byte plus
// emit actions).
func TestCyclesPerByte(t *testing.T) {
	data := workload.JSONRecords(2000, 13)
	im, err := effclip.Layout(BuildProgram(), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lane, err := machine.RunSingle(im, data)
	if err != nil {
		t.Fatal(err)
	}
	cpb := float64(lane.Stats().Cycles) / float64(len(data))
	if cpb < 1.5 || cpb > 3.5 {
		t.Fatalf("cycles/byte = %.2f outside [1.5,3.5]", cpb)
	}
}

func TestParallelShardsReassemble(t *testing.T) {
	data := workload.JSONRecords(2000, 14)
	im, err := effclip.Layout(BuildProgram(), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := machine.SplitRecords(data, 16, '\n')
	res, err := sched.Run(context.Background(), im, sched.Slice(shards), sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Output(), Tokenize(data)) {
		t.Fatal("sharded tokenization differs")
	}
}
