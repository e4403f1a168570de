package machine_test

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"

	"udp/internal/effclip"
	"udp/internal/fault"
	"udp/internal/kernels/pattern"
	"udp/internal/machine"
	"udp/internal/workload"
)

var updateNFAGolden = flag.Bool("update-nfa-golden", false, "rewrite testdata/nfa_golden.json from the current multi-active runner")

const nfaGoldenPath = "testdata/nfa_golden.json"

// nfaCase is one multi-active workload: a NIDS rule set built as an NFA and
// a synthetic network trace planted with its literals. The trace only
// plants literal prefixes, which never complete a complex rule, so a case
// can also splice whole hits (plant) between 256-byte runs of the trace.
type nfaCase struct {
	name     string
	rules    int
	complex  bool
	ruleSeed int64
	traceLen int
	hitRate  float64
	seed     int64
	plant    []string
}

// complexHits complete (and overlap) the first rules of
// NIDSPatterns(12, true, 7): eval(root|cmd), payload=[a-z0-9]{4,8},
// table=[a-z0-9]{4,8}, shell\.curl\d+, root=[a-z0-9]{4,8},
// passwd(wget|drop), table *= *"eval" and base64(curl|wget).
var complexHits = []string{
	"evalroot=ab12cd", "payload=x9y8z7", "table = \"eval\"", "shell.curl42",
	"passwddrop", "base64wget", "table=eval", "evalcmd",
}

var nfaGoldenCases = []nfaCase{
	{"nids6-complex-4k", 6, true, 5, 4096, 0.05, 6, nil},
	{"nids12-complex-64k", 12, true, 7, 64 << 10, 0.01, 7, nil},
	{"nids12-literal-64k", 12, false, 7, 64 << 10, 0.01, 7, nil},
	{"nids12-complex-planted-16k", 12, true, 7, 16 << 10, 0.01, 7, complexHits},
}

func (c nfaCase) build(tb testing.TB) (*effclip.Image, []byte) {
	tb.Helper()
	pats := workload.NIDSPatterns(c.rules, c.complex, c.ruleSeed)
	set, err := pattern.Compile(pats)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := set.BuildNFA()
	if err != nil {
		tb.Fatal(err)
	}
	img, err := effclip.Layout(prog, effclip.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	trace := workload.NetworkTrace(c.traceLen, pats, c.hitRate, c.seed)
	if c.plant == nil {
		return img, trace
	}
	var planted []byte
	for i := 0; i < len(trace); i += 256 {
		planted = append(planted, trace[i:min(i+256, len(trace))]...)
		planted = append(planted, c.plant[i/256%len(c.plant)]...)
	}
	return img, planted
}

// nfaGolden is what one case pins: the full run's counters and accept log
// in order, and the trap a run capped at half those cycles raises.
type nfaGolden struct {
	Stats   machine.Stats
	Matches []machine.Match
	Capped  struct {
		Stats machine.Stats
		Kind  string
		Text  string
		Trace []fault.TraceEntry
	}
}

func nfaRun(tb testing.TB, img *effclip.Image, input []byte, engine machine.Engine, budget uint64) (*machine.Lane, error) {
	tb.Helper()
	lane, err := machine.NewLane(img, 0)
	if err != nil {
		tb.Fatal(err)
	}
	lane.SetEngine(engine)
	lane.SetInput(input)
	return lane, lane.Run(budget)
}

func recordNFA(t *testing.T, img *effclip.Image, trace []byte, engine machine.Engine) nfaGolden {
	t.Helper()
	var g nfaGolden
	full, err := nfaRun(t, img, trace, engine, 0)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	defer full.Close()
	g.Stats = full.Stats()
	g.Matches = append([]machine.Match{}, full.Matches()...)

	capped, err := nfaRun(t, img, trace, engine, g.Stats.Cycles/2)
	defer capped.Close()
	var trap *fault.Trap
	if !errors.As(err, &trap) {
		t.Fatalf("run capped at %d cycles returned %v, want a trap", g.Stats.Cycles/2, err)
	}
	g.Capped.Stats = capped.Stats()
	g.Capped.Kind = trap.Kind.String()
	g.Capped.Text = trap.Error()
	g.Capped.Trace = trap.Trace
	return g
}

// TestNFAGolden pins the multi-active runner bit for bit: counters, the
// ordered match log, and a capped run's trap text and dispatch-trace tail,
// for every engine a caller can request. Regenerate testdata/nfa_golden.json
// with -update-nfa-golden only when the semantics change on purpose.
func TestNFAGolden(t *testing.T) {
	want := map[string]nfaGolden{}
	if !*updateNFAGolden {
		raw, err := os.ReadFile(nfaGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]nfaGolden{}
	for _, c := range nfaGoldenCases {
		t.Run(c.name, func(t *testing.T) {
			img, trace := c.build(t)
			for _, e := range []machine.Engine{machine.EngineInterp, machine.EngineDecoded, machine.EngineCompiled, machine.EngineAuto} {
				g := recordNFA(t, img, trace, e)
				// Complex rules match only where whole hits are planted.
				if g.Stats.Activations == 0 || (len(g.Matches) == 0) != (c.complex && c.plant == nil) {
					t.Fatalf("%v: %d activations, %d matches; not exercising the frontier", e, g.Stats.Activations, len(g.Matches))
				}
				if *updateNFAGolden {
					if prev, ok := got[c.name]; ok && !reflect.DeepEqual(prev, g) {
						t.Fatalf("%v diverges from the other engines", e)
					}
					got[c.name] = g
					continue
				}
				w, ok := want[c.name]
				if !ok {
					t.Fatalf("no golden for %s", c.name)
				}
				if g.Stats != w.Stats {
					t.Fatalf("%v stats:\n  got  %+v\n  want %+v", e, g.Stats, w.Stats)
				}
				if !reflect.DeepEqual(g.Matches, w.Matches) {
					t.Fatalf("%v match log diverged: got %d matches, want %d", e, len(g.Matches), len(w.Matches))
				}
				if !reflect.DeepEqual(g.Capped, w.Capped) {
					t.Fatalf("%v capped run:\n  got  %+v\n  want %+v", e, g.Capped, w.Capped)
				}
			}
		})
	}
	if *updateNFAGolden {
		raw, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(nfaGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkLaneNFA measures the multi-active runner: the 12-rule complex
// NIDS set over a 256 KiB trace. Run with -benchmem: the steady state must
// report 0 allocs/op.
func BenchmarkLaneNFA(b *testing.B) {
	c := nfaCase{"nids12-complex-256k", 12, true, 7, 256 << 10, 0.01, 7, nil}
	img, trace := c.build(b)
	lane, err := machine.NewLane(img, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer lane.Close()
	run := func() {
		lane.Reset()
		lane.SetInput(trace)
		if err := lane.Run(0); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the match log
	b.SetBytes(int64(len(trace)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
