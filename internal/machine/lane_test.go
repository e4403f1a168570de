package machine

import (
	"bytes"
	"testing"
	"testing/quick"

	"udp/internal/core"
	"udp/internal/effclip"
)

func mustLayout(t *testing.T, p *core.Program) *effclip.Image {
	t.Helper()
	im, err := effclip.Layout(p, effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// TestIdentityCopy: a single state whose majority fallback echoes every
// symbol. Exercises stream dispatch, fallback probing and Out8.
func TestIdentityCopy(t *testing.T) {
	p := core.NewProgram("copy", 8)
	s := p.AddState("s", core.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	lane, err := RunSingle(mustLayout(t, p), []byte("hello, udp"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(lane.Output(), []byte("hello, udp")) {
		t.Fatalf("output %q", lane.Output())
	}
	st := lane.Stats()
	if st.Dispatches != 10 || st.FallbackProbes != 10 {
		t.Fatalf("stats %+v", st)
	}
	// Each symbol: 1 dispatch + 1 fallback probe + 1 action.
	if st.Cycles != 30 {
		t.Fatalf("cycles %d, want 30", st.Cycles)
	}
}

// TestLabeledCounting: labeled transitions count specific symbols in a
// register.
func TestLabeledCounting(t *testing.T) {
	p := core.NewProgram("count", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('a', s, core.AAddi(core.R1, core.R1, 1))
	s.Majority(s)
	lane, err := RunSingle(mustLayout(t, p), []byte("banana"))
	if err != nil {
		t.Fatal(err)
	}
	if lane.Reg(core.R1) != 3 {
		t.Fatalf("count = %d, want 3", lane.Reg(core.R1))
	}
}

// TestRefillVariableSymbols decodes the prefix code {0:x, 10:y, 11:z} with a
// 2-bit dispatch and refill transitions for the 1-bit codeword.
func TestRefillVariableSymbols(t *testing.T) {
	p := core.NewProgram("prefix", 2)
	root := p.AddState("root", core.ModeStream)
	emit := func(c byte) []core.Action {
		return []core.Action{core.AMovi(core.R1, int32(c)), core.AOut8(core.R1)}
	}
	root.OnRefill(0, 1, root, emit('x')...)
	root.OnRefill(1, 1, root, emit('x')...)
	root.On(2, root, emit('y')...)
	root.On(3, root, emit('z')...)
	// x y z x = 0 10 11 0, padded with 00 -> 0101 1000 = 0x58. The two
	// trailing pad bits decode as one more 'x'.
	lane, err := RunSingle(mustLayout(t, p), []byte{0x58})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(lane.Output()); got != "xyzxx" {
		t.Fatalf("decoded %q, want \"xyzxx\"", got)
	}
}

// TestFlaggedDispatch: a flagged-mode state dispatches on R0 and halts.
func TestFlaggedDispatch(t *testing.T) {
	p := core.NewProgram("flag", 8)
	p.SymbolBits = 8
	st := p.AddState("st", core.ModeFlagged)
	st.SymbolBits = 2
	fin := p.AddState("fin", core.ModeFlagged)
	fin.SymbolBits = 2
	st.On(0, fin, core.AMovi(core.R1, 41), core.AMovi(core.R0, 3))
	fin.On(3, fin, core.AAddi(core.R1, core.R1, 1), core.AHalt(9))
	im := mustLayout(t, p)
	lane, err := NewLane(im, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.Run(0); err != nil {
		t.Fatal(err)
	}
	if lane.Reg(core.R1) != 42 || lane.Exit() != 9 {
		t.Fatalf("r1=%d exit=%d", lane.Reg(core.R1), lane.Exit())
	}
}

// TestCommonMode: two common states alternate, emitting every second byte.
func TestCommonMode(t *testing.T) {
	p := core.NewProgram("alt", 8)
	s0 := p.AddState("s0", core.ModeCommon)
	s1 := p.AddState("s1", core.ModeCommon)
	s0.Common(s1)
	s1.Common(s0, core.AOut8(core.RSym))
	lane, err := RunSingle(mustLayout(t, p), []byte("aXbYcZ"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(lane.Output()); got != "XYZ" {
		t.Fatalf("output %q, want XYZ", got)
	}
}

// TestDefaultTransition: a miss hops (without consuming) to a shared state
// that echoes the symbol, then control returns to the main state.
func TestDefaultTransition(t *testing.T) {
	p := core.NewProgram("d2fa", 8)
	a := p.AddState("a", core.ModeStream)
	d := p.AddState("d", core.ModeStream)
	a.On('a', a, core.AMovi(core.R2, 'A'), core.AOut8(core.R2))
	a.Default(d)
	d.Majority(a, core.AOut8(core.RSym))
	lane, err := RunSingle(mustLayout(t, p), []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(lane.Output()); got != "Ab" {
		t.Fatalf("output %q, want Ab", got)
	}
	if lane.Stats().DefaultHops != 1 {
		t.Fatalf("default hops %d, want 1", lane.Stats().DefaultHops)
	}
}

// TestNFAFork: epsilon transitions activate two branches; only the matching
// branch survives and accepts.
func TestNFAFork(t *testing.T) {
	p := core.NewProgram("nfa", 8)
	p.MultiActive = true
	s := p.AddState("s", core.ModeStream)
	b := p.AddState("b", core.ModeStream)
	c := p.AddState("c", core.ModeStream)
	s.OnEpsilon('a', b)
	s.OnEpsilon('a', c)
	b.On('b', b, core.AAccept(1))
	c.On('c', c, core.AAccept(2))
	lane, err := RunSingle(mustLayout(t, p), []byte("ab"))
	if err != nil {
		t.Fatal(err)
	}
	ms := lane.Matches()
	if len(ms) != 1 || ms[0].PatternID != 1 {
		t.Fatalf("matches %+v", ms)
	}
	if lane.Stats().Activations < 3 {
		t.Fatalf("activations %d", lane.Stats().Activations)
	}
}

// TestMemoryActions: store, load, increment, and the loop operations.
func TestMemoryActions(t *testing.T) {
	p := core.NewProgram("mem", 8)
	p.DataBytes = 256
	p.DataBase = 1024
	s := p.AddState("s", core.ModeFlagged)
	s.SymbolBits = 1
	s.On(0, s,
		core.AMovi(core.R1, 1024),
		core.ASt8(core.R1, core.RSym, 0), // mem[1024] = 0 (rsym)
		core.Action{Op: core.OpMovi, Dst: core.R2, Imm: 0x42},
		core.ASt8(core.R1, core.R2, 1), // mem[1025] = 0x42
		core.AIncm(core.R1, 4),         // mem32[1028]++
		core.AIncm(core.R1, 4),
		core.ALd8(core.R3, core.R1, 1), // r3 = 0x42
		core.Action{Op: core.OpLd32, Dst: core.R4, Src: core.R1, Imm: 4},
		core.AHalt(0),
	)
	im := mustLayout(t, p)
	lane, err := NewLane(im, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.Run(0); err != nil {
		t.Fatal(err)
	}
	if lane.Reg(core.R3) != 0x42 {
		t.Fatalf("r3 = %#x", lane.Reg(core.R3))
	}
	if lane.Reg(core.R4) != 2 {
		t.Fatalf("r4 = %d, want 2", lane.Reg(core.R4))
	}
}

// TestLoopCopyOverlap verifies RLE-style overlapping copies replicate bytes.
func TestLoopCopyOverlap(t *testing.T) {
	p := core.NewProgram("cpy", 8)
	p.DataBytes = 64
	p.DataBase = 2048
	s := p.AddState("s", core.ModeFlagged)
	s.SymbolBits = 1
	s.On(0, s,
		core.AMovi(core.R1, 2048), // src
		core.AMovi(core.R2, 2049), // dst
		core.AMovi(core.R3, 7),    // len
		core.Action{Op: core.OpLoopCpy, Dst: core.R2, Ref: core.R1, Src: core.R3},
		core.AHalt(0),
	)
	p.DataInit[0] = []byte{'q'}
	im := mustLayout(t, p)
	lane, err := NewLane(im, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := string(lane.Mem()[2048:2056]); got != "qqqqqqqq" {
		t.Fatalf("mem %q", got)
	}
	if lane.Reg(core.R2) != 2049+7 || lane.Reg(core.R1) != 2048+7 {
		t.Fatal("loopcpy must advance pointers")
	}
}

// TestEmitBits checks Huffman-style bit-packed output.
func TestEmitBits(t *testing.T) {
	p := core.NewProgram("bits", 8)
	s := p.AddState("s", core.ModeFlagged)
	s.SymbolBits = 1
	s.On(0, s,
		core.AMovi(core.R1, 0b101),
		core.AEmitBits(core.R1, 3),
		core.AEmitBits(core.R1, 3),
		core.AEmitBits(core.R1, 2), // "101101" + "01"
		core.AHalt(0),
	)
	lane, err := NewLane(mustLayout(t, p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(lane.Output()) != 1 || lane.Output()[0] != 0b10110101 {
		t.Fatalf("output %08b", lane.Output())
	}
}

// TestNoTransitionError: single-active programs error on unmatched symbols.
func TestNoTransitionError(t *testing.T) {
	p := core.NewProgram("strict", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('a', s)
	lane, err := NewLane(mustLayout(t, p), 0)
	if err != nil {
		t.Fatal(err)
	}
	lane.SetInput([]byte("ax"))
	if err := lane.Run(0); err == nil {
		t.Fatal("expected no-transition error")
	}
}

// TestMaxCyclesGuard: a self-looping flagged program trips the cycle guard.
func TestMaxCyclesGuard(t *testing.T) {
	p := core.NewProgram("spin", 8)
	s := p.AddState("s", core.ModeFlagged)
	s.SymbolBits = 1
	s.On(0, s)
	lane, err := NewLane(mustLayout(t, p), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.Run(1000); err == nil {
		t.Fatal("expected cycle-guard error")
	}
}

func TestBitStreamTakePutBack(t *testing.T) {
	bs := NewBitStream([]byte{0xA5, 0x0F})
	if got := bs.Take(4); got != 0xA {
		t.Fatalf("take(4) = %#x", got)
	}
	if got := bs.Take(8); got != 0x50 {
		t.Fatalf("take(8) = %#x", got)
	}
	bs.PutBack(8)
	if got := bs.Take(12); got != 0x50F {
		t.Fatalf("take(12) = %#x", got)
	}
	if bs.Has(1) {
		t.Fatal("stream should be exhausted")
	}
}

// TestBitStreamProperty: Take(n) then PutBack(n) restores the position and
// re-reading yields the same bits.
func TestBitStreamProperty(t *testing.T) {
	f := func(data []byte, n8 uint8, skip8 uint8) bool {
		if len(data) == 0 {
			return true
		}
		n := n8%32 + 1
		bs := NewBitStream(data)
		bs.SeekBit(int64(skip8) % bs.Len())
		if !bs.Has(n) {
			return true
		}
		pos := bs.Pos()
		v1 := bs.Take(n)
		bs.PutBack(n)
		if bs.Pos() != pos {
			return false
		}
		return bs.Take(n) == v1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRecords(t *testing.T) {
	data := []byte("a,1\nbb,22\nccc,333\ndd,44\ne,5\n")
	shards := SplitRecords(data, 3, '\n')
	if len(shards) > 3 {
		t.Fatalf("%d shards", len(shards))
	}
	var joined []byte
	for _, s := range shards {
		if len(s) > 0 && s[len(s)-1] != '\n' {
			t.Fatalf("shard %q does not end at a record boundary", s)
		}
		joined = append(joined, s...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("shards do not reassemble input")
	}
}

func TestSplitBytesReassembles(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	for _, n := range []int{1, 3, 7, 64, 1001} {
		var joined []byte
		for _, s := range SplitBytes(data, n) {
			joined = append(joined, s...)
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("n=%d does not reassemble", n)
		}
	}
}
