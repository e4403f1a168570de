package compile_test

import (
	"testing"

	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/xmlparse"
)

func lower(t *testing.T, p *core.Program) (*effclip.Image, *compile.Program) {
	t.Helper()
	im, err := effclip.Layout(p, effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := compile.For(im)
	if err != nil {
		t.Fatal(err)
	}
	return im, cp
}

func echoProgram() *core.Program {
	p := core.NewProgram("echo", 8)
	s := p.AddState("s", core.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	return p
}

func histogram16() *core.Program {
	p, err := histogram.BuildProgramEmit(histogram.UniformEdges(16, 0, 1))
	if err != nil {
		panic(err)
	}
	return p
}

// TestChainCountsUnchanged pins the chain classification of the builtins:
// the byte-step table only adds facts, it does not reclassify chains.
func TestChainCountsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		prog        *core.Program
		fused, slow int
	}{
		{echoProgram(), 1, 0},
		{csvparse.BuildProgram(), 4, 3},
		{csvparse.BuildProgramSep('|'), 4, 3},
		{jsonparse.BuildProgram(), 7, 3},
		{xmlparse.BuildProgram(), 4, 0},
		{histogram16(), 23, 0},
	} {
		_, cp := lower(t, tc.prog)
		if cp.FusedChains != tc.fused || cp.SlowChains != tc.slow {
			t.Errorf("%s: fused %d slow %d, want %d and %d", tc.prog.Name, cp.FusedChains, cp.SlowChains, tc.fused, tc.slow)
		}
	}
}
