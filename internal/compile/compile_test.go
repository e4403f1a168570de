package compile_test

import (
	"testing"

	"udp/internal/builtins"
	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/effclip"
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

// TestChainCountsUnchanged pins the chain classification of the builtins:
// the byte-step table only adds facts, it does not reclassify chains.
func TestChainCountsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name        string
		fused, slow int
	}{
		{"echo", 1, 0},
		{"csvparse", 4, 3},
		{"csvpipe", 4, 3},
		{"jsonparse", 7, 3},
		{"xmlparse", 4, 0},
		{"histogram16", 23, 0},
	} {
		_, cp := lower(t, builtins.Program(tc.name))
		if cp.FusedChains != tc.fused || cp.SlowChains != tc.slow {
			t.Errorf("%s: fused %d slow %d, want %d and %d", tc.name, cp.FusedChains, cp.SlowChains, tc.fused, tc.slow)
		}
	}
}
