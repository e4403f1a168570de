package compile_test

import (
	"fmt"
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

// stays returns the stay slots of cp by index.
func stays(cp *compile.Program) map[int]*compile.StaySet {
	m := map[int]*compile.StaySet{}
	for i := range cp.Slots {
		if s := cp.Slots[i].Stay; s != 0 {
			m[i] = &cp.Stays[s-1]
		}
	}
	return m
}

func count(set *compile.StaySet) int {
	n := 0
	for b := 0; b < 256; b++ {
		if set.Has(byte(b)) {
			n++
		}
	}
	return n
}

// majorityStay returns the stay set of the named state's majority word.
func majorityStay(t *testing.T, im *effclip.Image, cp *compile.Program, state string) *compile.StaySet {
	t.Helper()
	base, ok := im.StateBase[state]
	if !ok {
		t.Fatalf("no state %q", state)
	}
	cs := &cp.Slots[base-1]
	if cs.Stay == 0 || cs.Flags&compile.FlagProbe == 0 || int(cs.NextBase) != base {
		t.Fatalf("state %q: majority word is not a probed stay slot (%+v)", state, cs)
	}
	return &cp.Stays[cs.Stay-1]
}

// TestChainCountsUnchanged pins the chain classification of the builtins:
// the run analysis only adds facts, it does not reclassify chains.
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

func TestEchoStay(t *testing.T) {
	im, cp := lower(t, echoProgram())
	st := stays(cp)
	if len(st) != 1 {
		t.Fatalf("%d stay slots, want 1", len(st))
	}
	if set := majorityStay(t, im, cp, "s"); !set.Full() {
		t.Fatalf("echo stay set holds %d symbols, want all 256", count(set))
	}
}

func TestCSVFieldBodyStays(t *testing.T) {
	for _, sep := range []byte{',', '|'} {
		t.Run(string(sep), func(t *testing.T) {
			im, cp := lower(t, csvparse.BuildProgramSep(sep))
			plain := majorityStay(t, im, cp, "plain")
			for _, b := range []byte{sep, '\n', '\r'} {
				if plain.Has(b) {
					t.Errorf("plain field stay set holds %q", b)
				}
			}
			if n := count(plain); n != 253 {
				t.Errorf("plain field stay set holds %d symbols, want 253", n)
			}
			quote := majorityStay(t, im, cp, "quote")
			if quote.Has('"') || count(quote) != 255 {
				t.Errorf("quoted field stay set holds %d symbols (quote: %v), want 255 without '\"'",
					count(quote), quote.Has('"'))
			}
			// The field-start state leaves for plain on its majority: not
			// a stay.
			if cs := &cp.Slots[im.StateBase["field"]-1]; cs.Stay != 0 {
				t.Errorf("field-start majority word marked as a stay")
			}
		})
	}
}

// TestHistogramChains: a bin resolved after d nibbles skips the remaining
// 16-d through a chain of common states whose last hop emits the bin, so
// skip_b<bin>_k<k> starts k-1 action-free hops; an out-of-range bin emits
// nothing and its chains are all k hops. The longest is 15.
func TestHistogramChains(t *testing.T) {
	im, cp := lower(t, histogram16())
	longest, chains := 0, 0
	for name, base := range im.StateBase {
		var bin, k int
		if _, err := fmt.Sscanf(name, "skip_b%d_k%d", &bin, &k); err != nil {
			if cp.Slots[base].Hops != 0 {
				t.Errorf("trie state %s marked with %d hops", name, cp.Slots[base].Hops)
			}
			continue
		}
		want := k - 1
		if bin < 0 || bin >= 16 {
			want = k
		}
		if got := int(cp.Slots[base].Hops); got != want {
			t.Errorf("%s: %d hops, want %d", name, got, want)
		}
		chains++
		longest = max(longest, want)
	}
	if chains == 0 || longest != 15 {
		t.Fatalf("%d chain states, longest chain %d; want the longest at 15", chains, longest)
	}
	if len(cp.Stays) != 0 {
		t.Fatalf("histogram16 has %d stay sets; its trie is 4-bit", len(cp.Stays))
	}
}

// TestNotStays: transitions that change the symbol stream, the cost or the
// state are never marked.
func TestNotStays(t *testing.T) {
	t.Run("default-self-loop", func(t *testing.T) {
		p := core.NewProgram("d", 8)
		s := p.AddState("s", core.ModeStream)
		s.On('x', s, core.AOut8(core.RSym))
		s.Default(s)
		im, cp := lower(t, p)
		if cp.Slots[im.StateBase["s"]-1].Stay != 0 {
			t.Fatal("default self-loop marked as a stay")
		}
	})
	t.Run("refill-self-loop", func(t *testing.T) {
		p := core.NewProgram("r", 8)
		s := p.AddState("s", core.ModeStream)
		s.OnRefill('x', 8, s)
		s.OnRefill('y', 4, s, core.AOut8(core.RSym))
		if _, cp := lower(t, p); len(stays(cp)) != 0 {
			t.Fatalf("%d refill self-loops marked as stays", len(stays(cp)))
		}
	})
	t.Run("out16-self-loop", func(t *testing.T) {
		p := core.NewProgram("o", 8)
		s := p.AddState("s", core.ModeStream)
		s.Majority(s, core.Action{Op: core.OpOut16, Src: core.RSym})
		if _, cp := lower(t, p); len(stays(cp)) != 0 {
			t.Fatalf("Out16 self-loop marked as a stay")
		}
	})
	t.Run("fallback-signature-miss", func(t *testing.T) {
		// No majority word: every symbol but 'a' misses twice and traps,
		// so the only stay is the direct 'a' slot, with 'a' alone.
		p := core.NewProgram("strict", 8)
		s := p.AddState("s", core.ModeStream)
		s.On('a', s)
		s.On('b', s, core.AOut8(core.RSym))
		t2 := p.AddState("t", core.ModeStream)
		s.On('c', t2)
		t2.On('c', s)
		im, cp := lower(t, p)
		st := stays(cp)
		if len(st) != 2 {
			t.Fatalf("%d stay slots, want 2 (the 'a' and 'b' slots)", len(st))
		}
		base := im.StateBase["s"]
		for _, sym := range []byte{'a', 'b'} {
			set := st[base+int(sym)]
			if set == nil || count(set) != 1 || !set.Has(sym) {
				t.Fatalf("slot of %q: stay set %v, want {%q}", sym, set, sym)
			}
			if cp.Slots[base+int(sym)].Flags&compile.FlagProbe != 0 {
				t.Fatalf("direct slot of %q marked as probed", sym)
			}
		}
	})
	t.Run("common-with-actions", func(t *testing.T) {
		p := core.NewProgram("c", 8)
		a := p.AddState("a", core.ModeCommon)
		b := p.AddState("b", core.ModeCommon)
		c := p.AddState("c", core.ModeCommon)
		a.Common(b)
		b.Common(c, core.AOut8(core.RSym))
		c.Common(a)
		im, cp := lower(t, p)
		// a -> b is one action-free hop; b carries an action; c -> a -> b
		// is two.
		for state, want := range map[string]uint16{"a": 1, "b": 0, "c": 2} {
			if got := cp.Slots[im.StateBase[state]].Hops; got != want {
				t.Errorf("state %s: %d hops, want %d", state, got, want)
			}
		}
	})
	t.Run("common-cycle", func(t *testing.T) {
		p := core.NewProgram("cyc", 8)
		a := p.AddState("a", core.ModeCommon)
		b := p.AddState("b", core.ModeCommon)
		a.Common(b)
		b.Common(a)
		im, cp := lower(t, p)
		for _, state := range []string{"a", "b"} {
			if got := cp.Slots[im.StateBase[state]].Hops; got != 0xFFFF {
				t.Errorf("state %s on an action-free cycle: %d hops, want the 0xFFFF cap", state, got)
			}
		}
	})
}
