// Differential harness for the lane's execution tiers: every program runs
// three times — on the memory-word interpreter (EngineInterp, the reference
// semantics), on the predecoded cache (EngineDecoded), and on the compiled
// tier (EngineCompiled) — and everything observable must match bit for bit:
// output bytes, exit code, accept matches, the full counter set, the final
// memory image and register file, and any trap (including the trap's cycle
// and its dispatch-trace tail). The suite covers
// the builtin server kernels (echo, csvparse, csvpipe, jsonparse, xmlparse,
// histogram16), a memory-counter histogram, every dispatch kind (labeled,
// majority, default, refill, common, flagged, epsilon/NFA), runtime traps
// under an injected fault budget, and self-modifying programs that force
// cache invalidation. Multi-active (NFA) images have one runner whatever
// the tier, so for them the harness only holds fresh memory against
// recycled slabs; nfa_golden_test.go pins that runner's results.
//
// It lives in machine_test (not machine) because the pattern kernel imports
// machine for its UDP runner.
package machine_test

import (
	"bytes"
	"errors"
	"testing"

	"udp/internal/builtins"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/encode"
	"udp/internal/fault"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/pattern"
	"udp/internal/machine"
	"udp/internal/memsys"
	"udp/internal/workload"
)

func layout(t *testing.T, p *core.Program) *effclip.Image {
	t.Helper()
	im, err := effclip.Layout(p, effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// runOut captures everything observable about one lane execution.
type runOut struct {
	out     []byte
	exit    int32
	stats   machine.Stats
	matches []machine.Match
	mem     []byte
	regs    [core.NumRegs]uint32
	// watermark is the livelock high-water mark and stall count the run
	// left behind (not observable until a later Run, but part of the
	// state every tier must reproduce).
	watermark [2]uint64
	err       error
	// engine is the tier the run actually executed on (EngineInUse), so
	// cases can assert both that a tier was really exercised and that
	// degradation (e.g. after a store into the code window) happened.
	engine machine.Engine
}

func runBanks(t *testing.T, img *effclip.Image, banks int, input []byte, setup func(*machine.Lane), engine machine.Engine, budget uint64) runOut {
	t.Helper()
	lane, err := machine.NewLane(img, banks)
	if err != nil {
		t.Fatal(err)
	}
	lane.SetEngine(engine)
	lane.SetInput(input)
	if setup != nil {
		setup(lane)
	}
	runErr := lane.Run(budget)
	var regs [core.NumRegs]uint32
	for r := range regs {
		regs[r] = lane.Reg(core.Reg(r))
	}
	mark, stall := lane.Watermark()
	return runOut{
		out:       append([]byte(nil), lane.Output()...),
		exit:      lane.Exit(),
		stats:     lane.Stats(),
		matches:   append([]machine.Match(nil), lane.Matches()...),
		mem:       append([]byte(nil), lane.Mem()...),
		regs:      regs,
		watermark: [2]uint64{mark, stall},
		err:       runErr,
		engine:    lane.EngineInUse(),
	}
}

// diffAgainst fails the test on any observable divergence between the
// reference run and another tier's run.
func diffAgainst(t *testing.T, name string, ref, got runOut) {
	t.Helper()
	refErr, gotErr := "", ""
	if ref.err != nil {
		refErr = ref.err.Error()
	}
	if got.err != nil {
		gotErr = got.err.Error()
	}
	if refErr != gotErr {
		t.Fatalf("error diverged:\n  memory:  %v\n  %s: %v", ref.err, name, got.err)
	}
	// The message does not render the trap's dispatch-trace tail.
	var refTrap, gotTrap *fault.Trap
	if errors.As(ref.err, &refTrap) != errors.As(got.err, &gotTrap) {
		t.Fatalf("trap diverged:\n  memory:  %#v\n  %s: %#v", ref.err, name, got.err)
	}
	if refTrap != nil {
		if len(refTrap.Trace) != len(gotTrap.Trace) {
			t.Fatalf("trap trace length diverged: memory %d, %s %d", len(refTrap.Trace), name, len(gotTrap.Trace))
		}
		for i := range refTrap.Trace {
			if refTrap.Trace[i] != gotTrap.Trace[i] {
				t.Fatalf("trap trace entry %d diverged:\n  memory:  %+v\n  %s: %+v", i, refTrap.Trace, name, gotTrap.Trace)
			}
		}
	}
	if !bytes.Equal(ref.out, got.out) {
		t.Fatalf("output diverged: memory %d bytes, %s %d bytes\nmemory: %.80q\n%s: %.80q",
			len(ref.out), name, len(got.out), ref.out, name, got.out)
	}
	if ref.exit != got.exit {
		t.Fatalf("exit diverged: memory %d, %s %d", ref.exit, name, got.exit)
	}
	if ref.stats != got.stats {
		t.Fatalf("stats diverged:\n  memory:  %+v\n  %s: %+v", ref.stats, name, got.stats)
	}
	if len(ref.matches) != len(got.matches) {
		t.Fatalf("match count diverged: memory %d, %s %d", len(ref.matches), name, len(got.matches))
	}
	for i := range ref.matches {
		if ref.matches[i] != got.matches[i] {
			t.Fatalf("match %d diverged: memory %+v, %s %+v", i, ref.matches[i], name, got.matches[i])
		}
	}
	if !bytes.Equal(ref.mem, got.mem) {
		t.Fatalf("final memory image diverged (%s)", name)
	}
	if ref.regs != got.regs {
		t.Fatalf("final registers diverged:\n  memory:  %v\n  %s: %v", ref.regs, name, got.regs)
	}
	if ref.watermark != got.watermark {
		t.Fatalf("livelock watermark diverged: memory %v, %s %v", ref.watermark, name, got.watermark)
	}
}

// diffRun executes input on all three tiers and fails the test on any
// observable divergence, returning the runs for case-specific assertions.
func diffRun(t *testing.T, img *effclip.Image, input []byte, setup func(*machine.Lane)) (ref, dec, comp runOut) {
	t.Helper()
	return diffRunBanks(t, img, 0, input, setup, 0)
}

// diffRunBanks is the whole harness. The three tiers first run on lanes
// whose memory is freshly allocated (an empty slab manager misses on every
// Get), then again on lanes built from recycled slabs full of poison: a
// lane must behave the same whatever its slabs held before.
func diffRunBanks(t *testing.T, img *effclip.Image, banks int, input []byte, setup func(*machine.Lane), budget uint64) (ref, dec, comp runOut) {
	t.Helper()
	fresh := memsys.New(memsys.Config{})
	defer fresh.Close()
	defer machine.SwapSlabs(fresh)()
	ref = runBanks(t, img, banks, input, setup, machine.EngineInterp, budget)
	dec = runBanks(t, img, banks, input, setup, machine.EngineDecoded, budget)
	comp = runBanks(t, img, banks, input, setup, machine.EngineCompiled, budget)
	diffAgainst(t, "decoded", ref, dec)
	diffAgainst(t, "compiled", ref, comp)

	recycled := memsys.New(memsys.Config{})
	defer recycled.Close()
	defer machine.SwapSlabs(recycled)()
	for _, tier := range []struct {
		name   string
		engine machine.Engine
		want   runOut
	}{
		{"memory on recycled slabs", machine.EngineInterp, ref},
		{"decoded on recycled slabs", machine.EngineDecoded, dec},
		{"compiled on recycled slabs", machine.EngineCompiled, comp},
	} {
		refillPoison(recycled)
		got := runBanks(t, img, banks, input, setup, tier.engine, budget)
		diffAgainst(t, tier.name, tier.want, got)
		if got.engine != tier.want.engine {
			t.Fatalf("%s ran on %v, fresh memory on %v", tier.name, got.engine, tier.want.engine)
		}
	}
	for _, c := range recycled.Stats().Classes {
		if c.Hits != c.Gets {
			t.Fatalf("class %d: %d of %d lane buffers were not recycled slabs; the poisoned runs proved nothing",
				c.Size, c.Gets-c.Hits, c.Gets)
		}
	}
	return ref, dec, comp
}

// poison is what a recycled slab holds before a lane takes it: never zero
// and never the image.
const poison = 0xA5

// refillPoison tops every class ring of m up to two poisoned slabs, one for
// the next lane's bank window and one for its output buffer.
func refillPoison(m *memsys.Manager) {
	for _, c := range m.Stats().Classes {
		for n := c.Free; n < 2; n++ {
			m.Put(bytes.Repeat([]byte{poison}, c.Size))
		}
	}
}

// echoProgram is the echo builtin: one stream state copying each symbol.
func echoProgram() *core.Program { return builtins.Program("echo") }

// TestDifferentialKernels runs every builtin kernel plus programs covering
// the remaining dispatch kinds through all three execution tiers.
func TestDifferentialKernels(t *testing.T) {
	crimes := workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 200, Seed: 2})
	keys := histogram.KeyBytes(workload.FloatColumn(2048, workload.DistUniform, 0, 1, 4))
	edges := histogram.UniformEdges(16, 0, 1)

	cases := []struct {
		name  string
		build func(t *testing.T) *core.Program
		input []byte
	}{
		{"echo", func(t *testing.T) *core.Program { return echoProgram() },
			workload.Text(workload.TextEnglish, 16<<10, 1)},
		{"csvparse", func(t *testing.T) *core.Program { return builtins.Program("csvparse") }, crimes},
		{"csvpipe", func(t *testing.T) *core.Program { return builtins.Program("csvpipe") },
			bytes.ReplaceAll(crimes, []byte{','}, []byte{'|'})},
		{"jsonparse", func(t *testing.T) *core.Program { return builtins.Program("jsonparse") },
			workload.JSONRecords(200, 3)},
		{"xmlparse", func(t *testing.T) *core.Program { return builtins.Program("xmlparse") },
			bytes.Repeat([]byte(`<row a="1" b='x>y'><v>text & more</v></row>`+"\n"), 200)},
		{"histogram16", func(t *testing.T) *core.Program { return builtins.Program("histogram16") }, keys},
		{"histogram-mem", func(t *testing.T) *core.Program {
			p, err := histogram.BuildProgram(edges)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, keys},
		{"prefix-refill", func(t *testing.T) *core.Program {
			p := core.NewProgram("prefix", 2)
			root := p.AddState("root", core.ModeStream)
			emit := func(c byte) []core.Action {
				return []core.Action{core.AMovi(core.R1, int32(c)), core.AOut8(core.R1)}
			}
			root.OnRefill(0, 1, root, emit('x')...)
			root.OnRefill(1, 1, root, emit('x')...)
			root.On(2, root, emit('y')...)
			root.On(3, root, emit('z')...)
			return p
		}, workload.Text(workload.TextLog, 4<<10, 7)},
		{"default-d2fa", func(t *testing.T) *core.Program {
			p := core.NewProgram("d2fa", 8)
			a := p.AddState("a", core.ModeStream)
			d := p.AddState("d", core.ModeStream)
			a.On('a', a, core.AMovi(core.R2, 'A'), core.AOut8(core.R2))
			a.Default(d)
			d.Majority(a, core.AOut8(core.RSym))
			return p
		}, workload.Text(workload.TextEnglish, 4<<10, 9)},
		{"common-mode", func(t *testing.T) *core.Program {
			p := core.NewProgram("alt", 8)
			s0 := p.AddState("s0", core.ModeCommon)
			s1 := p.AddState("s1", core.ModeCommon)
			s0.Common(s1)
			s1.Common(s0, core.AOut8(core.RSym))
			return p
		}, workload.Text(workload.TextEnglish, 4<<10, 11)},
		{"flagged", func(t *testing.T) *core.Program {
			p := core.NewProgram("flag", 8)
			p.SymbolBits = 8
			st := p.AddState("st", core.ModeFlagged)
			st.SymbolBits = 2
			fin := p.AddState("fin", core.ModeFlagged)
			fin.SymbolBits = 2
			st.On(0, fin, core.AMovi(core.R1, 41), core.AMovi(core.R0, 3))
			fin.On(3, fin, core.AAddi(core.R1, core.R1, 1), core.AHalt(9))
			return p
		}, nil},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := layout(t, tc.build(t))
			_, dec, comp := diffRun(t, img, tc.input, nil)
			if dec.engine != machine.EngineDecoded {
				t.Fatalf("decoded run fell back to the memory path unexpectedly (engine %v)", dec.engine)
			}
			if comp.engine != machine.EngineCompiled {
				t.Fatalf("compiled run degraded unexpectedly (engine %v)", comp.engine)
			}
		})
	}
}

// TestDifferentialTraps drives runtime traps through all three tiers: the
// trap kind, message, and the full stats at trap time (including the cycle
// the trap fired on) must be bit-identical.
func TestDifferentialTraps(t *testing.T) {
	cases := []struct {
		name   string
		build  func(t *testing.T) *core.Program
		input  []byte
		setup  func(*machine.Lane)
		budget uint64
	}{
		{"cycle-budget", func(t *testing.T) *core.Program { return echoProgram() },
			[]byte("aaaaaaaaaaaaaaaa"), nil, 4},
		{"bad-signature", func(t *testing.T) *core.Program {
			p := core.NewProgram("strict", 8)
			s := p.AddState("s", core.ModeStream)
			s.On('a', s, core.AOut8(core.RSym))
			return p
		}, []byte("aaab"), nil, 0},
		{"mem-out-of-window", func(t *testing.T) *core.Program {
			p := core.NewProgram("wild-load", 8)
			s := p.AddState("s", core.ModeStream)
			s.Majority(s, core.ALdx(core.R2, core.R3, core.R0))
			return p
		}, []byte("a"), func(l *machine.Lane) { l.SetReg(core.R3, 1<<22) }, 0},
		{"bad-symbol-size", func(t *testing.T) *core.Program {
			p := core.NewProgram("bad-ss", 8)
			s := p.AddState("s", core.ModeStream)
			s.Majority(s,
				core.AMovi(core.R2, 40),
				core.Action{Op: core.OpSetSSR, Src: core.R2})
			return p
		}, []byte("a"), nil, 0},
		{"putback-livelock", func(t *testing.T) *core.Program {
			p := core.NewProgram("livelock", 8)
			s := p.AddState("s", core.ModeStream)
			s.Majority(s, core.Action{Op: core.OpPutBack, Imm: 8})
			return p
		}, []byte("a"), func(l *machine.Lane) { l.SetLivelockWindow(256) }, 0},
		// A zero-width entry symbol size (every state declares its own
		// width; the program declares none): each dispatch reads 0 bits,
		// including at the end of the input.
		{"zero-symbol-bits", func(t *testing.T) *core.Program {
			p := core.NewProgram("ss0", 0)
			s := p.AddState("s", core.ModeStream)
			s.SymbolBits = 8
			s.Majority(s)
			return p
		}, nil, func(l *machine.Lane) { l.SetLivelockWindow(64) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := layout(t, tc.build(t))
			ref, _, _ := diffRunBanks(t, img, 0, tc.input, tc.setup, tc.budget)
			if ref.err == nil {
				t.Fatal("reference run succeeded, want a trap")
			}
		})
	}
}

// TestDifferentialNFA covers multi-active (epsilon/fork-chain) execution
// with a NIDS-like pattern set over a synthetic trace. A multi-active image
// has one runner, the frontier walk over lane memory, so every engine
// request must report EngineInterp; the harness still holds each run on
// recycled, poisoned slabs to its fresh-memory twin.
func TestDifferentialNFA(t *testing.T) {
	pats := workload.NIDSPatterns(6, true, 5)
	set, err := pattern.Compile(pats)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := set.BuildNFA()
	if err != nil {
		t.Fatal(err)
	}
	img := layout(t, prog)
	trace := workload.NetworkTrace(4096, pats, 0.05, 6)
	ref, dec, comp := diffRun(t, img, trace, nil)
	for _, r := range []runOut{ref, dec, comp} {
		if r.engine != machine.EngineInterp {
			t.Fatalf("multi-active run reported %v, want interp", r.engine)
		}
	}
	if ref.stats.Activations == 0 {
		t.Fatalf("NFA case never activated a state; not exercising fork chains")
	}
}

// selfModImage builds a program whose 'w' transition stores R2 at byte
// address R1, plus a majority echo of 'A'; it returns the image, the byte
// address of the OutI('A') action word, and a replacement word encoding
// OutI(repl).
func selfModImage(t *testing.T, repl byte) (*effclip.Image, uint32, uint32) {
	t.Helper()
	p := core.NewProgram("selfmod", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('w', s, core.Action{Op: core.OpSt32, Dst: core.R1, Src: core.R2})
	s.Majority(s, core.Action{Op: core.OpOutI, Imm: 'A'})
	img := layout(t, p)
	return img, findActionWord(t, img, core.Action{Op: core.OpOutI, Imm: 'A'}),
		mustEncode(t, core.Action{Op: core.OpOutI, Imm: int32(repl)})
}

// findActionWord locates the encoded last-of-chain form of a in the image
// words and returns its byte address.
func findActionWord(t *testing.T, img *effclip.Image, a core.Action) uint32 {
	t.Helper()
	want := mustEncode(t, a)
	for i, w := range img.Words {
		if w == want {
			return uint32(i * core.WordBytes)
		}
	}
	t.Fatalf("action %v not found in image words", a)
	return 0
}

func mustEncode(t *testing.T, a core.Action) uint32 {
	t.Helper()
	w, err := encode.PutAction(a, true)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDifferentialSelfModifying: a store into the code window rewrites the
// majority action from OutI('A') to OutI('B') mid-run. The decoded and
// compiled tiers must invalidate their caches and finish on the memory
// interpreter, matching the reference bit for bit; a Reset must restore the
// pristine code and re-arm the caches.
func TestDifferentialSelfModifying(t *testing.T) {
	img, addr, repl := selfModImage(t, 'B')
	setup := func(l *machine.Lane) {
		l.SetReg(core.R1, addr)
		l.SetReg(core.R2, repl)
	}
	ref, dec, comp := diffRun(t, img, []byte("xwx"), setup)
	if got := string(ref.out); got != "AB" {
		t.Fatalf("reference output %q, want \"AB\"", got)
	}
	if dec.engine != machine.EngineInterp {
		t.Fatalf("store into code window did not invalidate the decoded cache (engine %v)", dec.engine)
	}
	if comp.engine != machine.EngineInterp {
		t.Fatalf("store into code window did not force the compiled tier off its tables (engine %v)", comp.engine)
	}

	// Reuse: Reset must restore the rewritten code word from the snapshot
	// and re-arm the fast path, so a second run repeats the first.
	lane, err := machine.NewLane(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		lane.Reset()
		if !lane.Decoding() {
			t.Fatalf("round %d: Reset did not re-arm the decoded path", round)
		}
		lane.SetInput([]byte("xwx"))
		setup(lane)
		if err := lane.Run(0); err != nil {
			t.Fatal(err)
		}
		if got := string(lane.Output()); got != "AB" {
			t.Fatalf("round %d: output %q, want \"AB\"", round, got)
		}
	}
}

// TestDifferentialSelfModifyingMidChain: the store is the first action of a
// chain whose *second* action it rewrites, so the fast tiers must abandon
// their memoized chain mid-execution and re-fetch the rewritten word.
func TestDifferentialSelfModifyingMidChain(t *testing.T) {
	p := core.NewProgram("selfmod2", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('m', s,
		core.Action{Op: core.OpSt32, Dst: core.R1, Src: core.R2},
		core.Action{Op: core.OpOutI, Imm: 'A'})
	s.Majority(s)
	img := layout(t, p)
	addr := findActionWord(t, img, core.Action{Op: core.OpOutI, Imm: 'A'})
	repl := mustEncode(t, core.Action{Op: core.OpOutI, Imm: 'Q'})
	setup := func(l *machine.Lane) {
		l.SetReg(core.R1, addr)
		l.SetReg(core.R2, repl)
	}
	ref, dec, comp := diffRun(t, img, []byte("m"), setup)
	if got := string(ref.out); got != "Q" {
		t.Fatalf("reference output %q, want \"Q\" (the rewritten action)", got)
	}
	if dec.engine != machine.EngineInterp {
		t.Fatalf("mid-chain store did not invalidate the decoded cache (engine %v)", dec.engine)
	}
	if comp.engine != machine.EngineInterp {
		t.Fatalf("mid-chain store did not force the compiled tier off its tables (engine %v)", comp.engine)
	}
}

// TestLaneReuseDirtyReset: the dirty-range Reset must leave no state behind
// across runs of a memory-writing program — every round must reproduce the
// first exactly.
func TestLaneReuseDirtyReset(t *testing.T) {
	edges := histogram.UniformEdges(16, 0, 1)
	prog, err := histogram.BuildProgram(edges)
	if err != nil {
		t.Fatal(err)
	}
	img := layout(t, prog)
	keys := histogram.KeyBytes(workload.FloatColumn(512, workload.DistNormal, 0, 1, 8))
	lane, err := machine.NewLane(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	var firstMem []byte
	var firstStats machine.Stats
	for round := 0; round < 3; round++ {
		lane.Reset()
		lane.SetInput(keys)
		if err := lane.Run(0); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			firstMem = append([]byte(nil), lane.Mem()...)
			firstStats = lane.Stats()
			continue
		}
		if !bytes.Equal(lane.Mem(), firstMem) {
			t.Fatalf("round %d: memory image differs from round 0 (dirty-range Reset leaked state)", round)
		}
		if lane.Stats() != firstStats {
			t.Fatalf("round %d: stats %+v differ from round 0 %+v", round, lane.Stats(), firstStats)
		}
	}
}

// TestDispatchZeroAlloc pins the decoded-tier acceptance criterion: the
// steady-state dispatch loop (Reset, SetInput, Run over a reused lane)
// performs zero allocations per run once output capacity is warm.
func TestDispatchZeroAlloc(t *testing.T) {
	img := layout(t, echoProgram())
	lane, err := machine.NewLane(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	lane.SetEngine(machine.EngineDecoded)
	input := bytes.Repeat([]byte("0123456789abcdef"), 512)
	run := func() {
		lane.Reset()
		lane.SetInput(input)
		if err := lane.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state dispatch loop: %.1f allocs/run, want 0", allocs)
	}
}

// TestCompiledZeroAlloc pins the compiled-tier acceptance criterion: the
// steady-state compiled loop performs zero allocations per run — on the
// action-heavy csvparse kernel, not just echo — once output capacity is
// warm.
func TestCompiledZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  *core.Program
		input []byte
	}{
		{"echo", echoProgram(), bytes.Repeat([]byte("0123456789abcdef"), 512)},
		{"csvparse", csvparse.BuildProgram(),
			workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 100, Seed: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := layout(t, tc.prog)
			lane, err := machine.NewLane(img, 0)
			if err != nil {
				t.Fatal(err)
			}
			lane.SetEngine(machine.EngineCompiled)
			run := func() {
				lane.Reset()
				lane.SetInput(tc.input)
				if err := lane.Run(0); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the output buffer
			if got := lane.EngineInUse(); got != machine.EngineCompiled {
				t.Fatalf("engine in use %v, want compiled", got)
			}
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("steady-state compiled loop: %.1f allocs/run, want 0", allocs)
			}
		})
	}
}

// TestNFAZeroAlloc pins the multi-active runner's steady state: once a lane
// has run one multi-active shard (its frontiers exist and the match log has
// grown), further runs allocate nothing.
func TestNFAZeroAlloc(t *testing.T) {
	c := nfaCase{"nids12-literal-16k", 12, false, 7, 16 << 10, 0.05, 7, nil}
	img, trace := c.build(t)
	lane, err := machine.NewLane(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lane.Close()
	run := func() {
		lane.Reset()
		lane.SetInput(trace)
		if err := lane.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	run() // allocate the frontiers, grow the match log
	if len(lane.Matches()) == 0 || lane.Stats().Activations == 0 {
		t.Fatalf("%d matches, %d activations; not exercising the frontier", len(lane.Matches()), lane.Stats().Activations)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state multi-active run: %.1f allocs/run, want 0", allocs)
	}
}

// laneShapes are the automaton shapes the lane benchmarks sweep: a
// field-body CSV parser, a one-state echo, a JSON tokenizer, and the 4-bit
// histogram trie with its common-mode skip chains.
func laneShapes(b *testing.B) []struct {
	name  string
	prog  *core.Program
	input []byte
} {
	hist := builtins.Program("histogram16")
	return []struct {
		name  string
		prog  *core.Program
		input []byte
	}{
		{"csvparse", csvparse.BuildProgram(), workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 500, Seed: 3})},
		{"echo", echoProgram(), workload.Text(workload.TextEnglish, 64<<10, 3)},
		{"jsonparse", jsonparse.BuildProgram(), workload.JSONRecords(300, 3)},
		{"histogram16e", hist, histogram.KeyBytes(workload.FloatColumn(8192, workload.DistUniform, 0, 1, 3))},
	}
}

// benchLane measures one tier over every lane shape. Run with -benchmem:
// the steady state must report 0 allocs/op on every tier.
func benchLane(b *testing.B, engine machine.Engine) {
	for _, sh := range laneShapes(b) {
		b.Run(sh.name, func(b *testing.B) {
			img, err := effclip.Layout(sh.prog, effclip.Options{})
			if err != nil {
				b.Fatal(err)
			}
			lane, err := machine.NewLane(img, 0)
			if err != nil {
				b.Fatal(err)
			}
			lane.SetEngine(engine)
			// Warm the output buffer so b.N=1 runs do not report the
			// one-time capacity growth.
			lane.Reset()
			lane.SetInput(sh.input)
			if err := lane.Run(0); err != nil {
				b.Fatal(err)
			}
			if got := lane.EngineInUse(); got != engine {
				b.Fatalf("engine in use %v, want %v", got, engine)
			}
			b.SetBytes(int64(len(sh.input)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lane.Reset()
				lane.SetInput(sh.input)
				if err := lane.Run(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLaneCompiled(b *testing.B) { benchLane(b, machine.EngineCompiled) }
func BenchmarkLaneDecoded(b *testing.B)  { benchLane(b, machine.EngineDecoded) }
func BenchmarkLaneMemory(b *testing.B)   { benchLane(b, machine.EngineInterp) }
