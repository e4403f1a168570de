package machine_test

import (
	"sync"
	"testing"

	"udp/internal/builtins"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/kernels/histogram"
	"udp/internal/machine"
)

var (
	fuzzImagesOnce sync.Once
	fuzzImages     []*effclip.Image
)

// fuzzKernels lays out the byte-step table shapes once: a copy row (echo);
// field-body and string rows (csvparse, jsonparse, xmlparse); nibble rows
// with common-mode skip chains (histogram16e); halts into a stay state and
// into a common chain (haltProgram); the Incm histogram, whose final hop
// exits mid-byte; 2-bit symbols; chains the table must leave to the
// ordinary dispatch (wideProgram); an image entering in ModeCommon; and a
// segment that steps from an ordinary row into a copy row (enterCopyProgram).
func fuzzKernels(t *testing.T) []*effclip.Image {
	fuzzImagesOnce.Do(func() {
		incm, err := histogram.BuildProgram(builtins.HistogramEdges())
		if err != nil {
			panic(err)
		}
		for _, p := range []*core.Program{echoProgram(), builtins.Program("csvparse"),
			builtins.Program("jsonparse"), builtins.Program("xmlparse"), builtins.Program("histogram16"), haltProgram(),
			incm, bits2Program(), wideProgram(), commonEntryProgram(), enterCopyProgram()} {
			im, err := effclip.Layout(p, effclip.Options{})
			if err != nil {
				panic(err)
			}
			fuzzImages = append(fuzzImages, im)
		}
	})
	return fuzzImages
}

// bits2Program steps 2-bit symbols through two states: pure transitions
// with and without outputs and register writes, and a 3-output chain that
// makes every byte reaching it an exit partway through.
func bits2Program() *core.Program {
	p := core.NewProgram("bits2", 2)
	a := p.AddState("a", core.ModeStream)
	b := p.AddState("b", core.ModeStream)
	a.On(0, a, core.AMovi(core.R1, 'x'), core.AOut8(core.R1))
	a.On(1, b)
	a.On(2, a, core.Action{Op: core.OpOutI, Imm: 'y'})
	a.Majority(b, core.AOut8(core.RSym))
	b.On(3, a, core.AOut8(core.RSym), core.AOut8(core.RSym), core.Action{Op: core.OpOutI, Imm: 'z'})
	b.Majority(a)
	return p
}

// wideProgram echoes bytes, but 'a' emits 3 bytes and 'b' writes two
// registers: both are exits between tabled bytes.
func wideProgram() *core.Program {
	p := core.NewProgram("wide", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('a', s, core.AOut8(core.RSym), core.AOut8(core.RSym), core.Action{Op: core.OpOutI, Imm: '+'})
	s.On('b', s, core.AMovi(core.R1, 'B'), core.AMovi(core.R2, 'C'), core.AOut8(core.R1), core.AOut8(core.R2))
	s.Majority(s, core.AOut8(core.RSym))
	return p
}

// commonEntryProgram enters in a common-mode state that marks each line,
// then echoes the line in a stream state.
func commonEntryProgram() *core.Program {
	p := core.NewProgram("common-entry", 8)
	c0 := p.AddState("c0", core.ModeCommon)
	c1 := p.AddState("c1", core.ModeCommon)
	s := p.AddState("s", core.ModeStream)
	c0.Common(c1, core.Action{Op: core.OpOutI, Imm: '<'})
	c1.Common(s, core.AOut8(core.RSym))
	s.On('\n', c0, core.AOut8(core.RSym))
	s.Majority(s, core.AOut8(core.RSym))
	return p
}

// enterCopyProgram drops its first two bytes, then echoes the rest in a
// copy row. A run's first dispatch makes no progress yet, so the table
// takes over from the second byte: one segment covers row a and the copy
// row b.
func enterCopyProgram() *core.Program {
	p := core.NewProgram("enter-copy", 8)
	e := p.AddState("e", core.ModeStream)
	a := p.AddState("a", core.ModeStream)
	b := p.AddState("b", core.ModeStream)
	e.Majority(a)
	a.Majority(b)
	b.Majority(b, core.AOut8(core.RSym))
	return p
}

// FuzzCompiledRuns feeds random bytes through the table-shape kernels under
// a random cycle budget and livelock window (0 selects the default) and
// requires the compiled tier to match the memory interpreter on everything
// observable, trap trace tail included.
func FuzzCompiledRuns(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint16(0), []byte("hello, world"))
	f.Add(uint8(1), uint32(40), uint16(3), []byte("a,b,\"c,d\"\nxyz,,\"\"\"\"\n"))
	f.Add(uint8(2), uint32(0), uint16(1), []byte(`{"k": "v\"w", "n": [1, 2.5, true]}`+"\n"))
	f.Add(uint8(3), uint32(77), uint16(0), []byte(`<a b="1">t &amp; u</a>`+"\n"))
	f.Add(uint8(4), uint32(100), uint16(2), histogram.KeyBytes([]float64{0.1, 0.55, -3, 2}))
	f.Add(uint8(5), uint32(0), uint16(0), []byte("ab!cd#ef"))
	f.Add(uint8(6), uint32(0), uint16(0), histogram.KeyBytes([]float64{0.3, 0.9, 0.05}))
	f.Add(uint8(7), uint32(60), uint16(0), []byte("\x00\x1b\xe4\xff\x55"))
	f.Add(uint8(8), uint32(0), uint16(0), []byte("xxaybbz"))
	f.Add(uint8(9), uint32(0), uint16(0), []byte("line one\nline two\n"))
	f.Add(uint8(10), uint32(8), uint16(0), []byte("abcdefgh"))
	f.Fuzz(func(t *testing.T, kernel uint8, budget uint32, window uint16, data []byte) {
		imgs := fuzzKernels(t)
		img := imgs[int(kernel)%len(imgs)]
		setup := func(l *machine.Lane) { l.SetLivelockWindow(uint64(window)) }
		ref := runBanks(t, img, 0, data, setup, machine.EngineInterp, uint64(budget))
		comp := runBanks(t, img, 0, data, setup, machine.EngineCompiled, uint64(budget))
		diffAgainst(t, "compiled", ref, comp)
	})
}
