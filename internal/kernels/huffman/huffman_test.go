package huffman

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"udp/internal/effclip"
	"udp/internal/machine"
	"udp/internal/sched"
	"udp/internal/workload"
)

func TestCanonicalProperties(t *testing.T) {
	data := []byte("abracadabra alakazam")
	tbl := Build(data)
	// Kraft inequality and canonical ordering.
	kraft := 0
	unit := 1 << MaxCodeLen
	var coded []Code
	for s := 0; s < 256; s++ {
		c := tbl.Codes[s]
		if c.Len == 0 {
			continue
		}
		if c.Len > MaxCodeLen {
			t.Fatalf("symbol %d length %d exceeds cap", s, c.Len)
		}
		kraft += unit >> c.Len
		coded = append(coded, c)
	}
	if kraft > unit {
		t.Fatalf("Kraft sum %d/%d infeasible", kraft, unit)
	}
	// Prefix-free: no code is a prefix of another.
	for i, a := range coded {
		for j, b := range coded {
			if i == j || a.Len > b.Len {
				continue
			}
			if b.Bits>>(b.Len-a.Len) == a.Bits {
				t.Fatalf("code %v is a prefix of %v", a, b)
			}
		}
	}
	// More frequent symbols get codes no longer than rarer ones.
	if tbl.Codes['a'].Len > tbl.Codes['z'].Len {
		t.Fatal("frequent symbol got longer code than rare one")
	}
}

func TestRoundTripBaseline(t *testing.T) {
	data := workload.Text(workload.TextEnglish, 8192, 11)
	tbl := Build(data)
	comp, bits := tbl.Encode(data)
	if len(comp) != (bits+7)/8 {
		t.Fatalf("bit count %d vs %d bytes", bits, len(comp))
	}
	if len(comp) >= len(data) {
		t.Fatal("English text should compress")
	}
	dec, err := tbl.Decode(comp, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("round trip failed")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		tbl := Build(data)
		comp, _ := tbl.Encode(data)
		dec, err := tbl.Decode(comp, len(data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthLimitSkewed(t *testing.T) {
	// Exponentially skewed frequencies force deep trees that must clamp.
	var freq [256]int
	f := 1
	for s := 0; s < 40; s++ {
		freq[s] = f
		f = f*2 + 1
	}
	tbl := BuildFromFreq(freq)
	for s := 0; s < 40; s++ {
		if tbl.Codes[s].Len == 0 || tbl.Codes[s].Len > MaxCodeLen {
			t.Fatalf("symbol %d length %d", s, tbl.Codes[s].Len)
		}
	}
	// Must still decode.
	data := make([]byte, 2000)
	rng := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = byte(rng.Intn(40))
	}
	comp, _ := tbl.Encode(data)
	dec, err := tbl.Decode(comp, len(data))
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("skewed round trip failed: %v", err)
	}
}

func TestUDPEncoderMatchesBaseline(t *testing.T) {
	data := workload.Text(workload.TextEnglish, 4096, 12)
	tbl := Build(data)
	im, err := effclip.Layout(BuildEncoder(tbl), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := RunEncoder(im, data)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := tbl.Encode(data)
	if !bytes.Equal(got, want) {
		t.Fatalf("UDP encoding differs: %d vs %d bytes", len(got), len(want))
	}
	cps := float64(st.Cycles) / float64(len(data))
	if cps < 5 || cps > 8 {
		t.Fatalf("encoder cycles/symbol = %.2f, outside [5,8]", cps)
	}
}

func TestUDPDecoderVariantsMatchBaseline(t *testing.T) {
	corpora := [][]byte{
		workload.Text(workload.TextEnglish, 6000, 21),
		workload.Text(workload.TextRuns, 6000, 22),
		workload.Text(workload.TextRandom, 3000, 23),
		workload.Text(workload.TextLog, 6000, 24),
	}
	for ci, data := range corpora {
		tbl := Build(data)
		comp, _ := tbl.Encode(data)
		for _, v := range []Variant{SsRef, SsReg, SsT, SsF} {
			prog, err := BuildDecoder(tbl, v)
			if err != nil {
				t.Fatalf("corpus %d %s: build: %v", ci, v, err)
			}
			im, err := LayoutDecoder(prog, v)
			if err != nil {
				t.Fatalf("corpus %d %s: layout: %v", ci, v, err)
			}
			got, _, err := RunDecoder(im, comp, len(data))
			if err != nil {
				t.Fatalf("corpus %d %s: run: %v", ci, v, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("corpus %d %s: decoded data differs", ci, v)
			}
		}
	}
}

// TestVariantTradeoffs pins the Figure 8 shape: SsF is fastest per lane but
// largest; SsRef is no slower than SsReg; SsReg/SsRef are the smallest.
func TestVariantTradeoffs(t *testing.T) {
	data := workload.Text(workload.TextEnglish, 20000, 31)
	tbl := Build(data)
	comp, _ := tbl.Encode(data)

	type result struct {
		cycles uint64
		size   int
	}
	res := map[Variant]result{}
	for _, v := range []Variant{SsRef, SsReg, SsT, SsF} {
		prog, err := BuildDecoder(tbl, v)
		if err != nil {
			t.Fatal(err)
		}
		im, err := LayoutDecoder(prog, v)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := RunDecoder(im, comp, len(data))
		if err != nil {
			t.Fatal(err)
		}
		res[v] = result{st.Cycles, im.CodeBytes()}
	}
	if res[SsF].cycles >= res[SsRef].cycles {
		t.Fatalf("SsF (%d cycles) should beat SsRef (%d)", res[SsF].cycles, res[SsRef].cycles)
	}
	if res[SsF].size <= 4*res[SsRef].size {
		t.Fatalf("SsF (%d B) should dwarf SsRef (%d B)", res[SsF].size, res[SsRef].size)
	}
	if res[SsRef].cycles > res[SsReg].cycles {
		t.Fatalf("SsRef (%d cycles) should not trail SsReg (%d)", res[SsRef].cycles, res[SsReg].cycles)
	}
	if res[SsT].size <= res[SsRef].size {
		t.Fatalf("SsT (%d B) should exceed SsRef (%d B): wider transitions", res[SsT].size, res[SsRef].size)
	}
	if res[SsT].cycles > res[SsRef].cycles {
		t.Fatalf("SsT (%d cycles) should match SsRef (%d)", res[SsT].cycles, res[SsRef].cycles)
	}
}

func TestDecodeErrors(t *testing.T) {
	tbl := Build([]byte("aab"))
	if _, err := tbl.Decode([]byte{0xFF}, 100); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

// TestDeepTreeParallelism contrasts the paper's Section 5.2 memory trade on
// a deep, skewed tree: the unrolled SsF program's footprint crosses bank
// boundaries and sacrifices lanes, while the SsRef design keeps the full
// 64-way parallelism on the same tree (flexible addressing covers its
// multi-table data without starving lanes).
func TestDeepTreeParallelism(t *testing.T) {
	// A near-degenerate frequency profile makes a deep, wide tree.
	var freq [256]int
	f := 1
	for s := 0; s < 256; s++ {
		freq[s] = f
		if s%2 == 1 && f < 1<<32 {
			f = f*3/2 + 1
		}
	}
	deep := BuildFromFreq(freq)
	prog, err := BuildDecoder(deep, SsRef)
	if err != nil {
		t.Fatal(err)
	}
	im, err := LayoutDecoder(prog, SsRef)
	if err != nil {
		t.Fatal(err)
	}
	if lanes := machine.MaxLanes(im); lanes != 64 {
		t.Fatalf("SsRef should keep 64 lanes on the deep tree, got %d (footprint %d B)",
			lanes, im.FootprintBytes())
	}

	// The fixed-width unroll of the same tree starves parallelism.
	fprog, err := BuildDecoder(deep, SsF)
	if err != nil {
		t.Fatal(err)
	}
	fim, err := LayoutDecoder(fprog, SsF)
	if err != nil {
		t.Fatal(err)
	}
	if lanes := machine.MaxLanes(fim); lanes >= 32 {
		t.Fatalf("SsF unroll should drop below 32 lanes, got %d (footprint %d B)",
			lanes, fim.FootprintBytes())
	}
	// And it must still decode correctly at that footprint.
	data := make([]byte, 4000)
	for i := range data {
		data[i] = byte(i * 37)
	}
	comp, _ := deep.Encode(data)
	got, _, err := RunDecoder(im, comp, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("deep-tree decode corrupted data")
	}
}

// TestParallelDecode64 reproduces the paper's parallelism model for Huffman
// (Section 4.1: "we duplicate the Canterbury data to provide 64-lane
// parallelism"): 64 lanes each decode a copy of the stream concurrently.
func TestParallelDecode64(t *testing.T) {
	data := workload.Text(workload.TextEnglish, 8000, 91)
	tbl := Build(data)
	comp, _ := tbl.Encode(data)
	prog, err := BuildDecoder(tbl, SsRef)
	if err != nil {
		t.Fatal(err)
	}
	im, err := LayoutDecoder(prog, SsRef)
	if err != nil {
		t.Fatal(err)
	}
	lanes := machine.MaxLanes(im)
	if lanes != 64 {
		t.Fatalf("expected 64 lanes, got %d", lanes)
	}
	padded := append(append([]byte(nil), comp...), 0, 0)
	shards := make([][]byte, lanes)
	for i := range shards {
		shards[i] = padded
	}
	res, err := sched.Run(context.Background(), im, sched.Slice(shards), sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if len(out) < len(data) || !bytes.Equal(out[:len(data)], data) {
			t.Fatalf("lane %d: decode differs", i)
		}
	}
	// Aggregate throughput must be ~64x one lane (copies are equal work).
	single, err := machine.RunSingle(im, padded)
	if err != nil {
		t.Fatal(err)
	}
	agg := float64(64*len(data)) / (float64(res.Cycles) * machine.ClockPeriodNs * 1e-9) / 1e6
	one := machine.RateMBps(len(data), single.Stats().Cycles)
	if agg < 60*one || agg > 66*one {
		t.Fatalf("aggregate %.0f MB/s not ~64x single %.0f MB/s", agg, one)
	}
}
