package udp_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"udp"
	"udp/internal/core"
	"udp/internal/sched"
)

// TestFacadeEndToEnd exercises the documented public flow: build, compile,
// run single-lane and parallel.
func TestFacadeEndToEnd(t *testing.T) {
	p := udp.NewProgram("echo", 8)
	s := p.AddState("s", udp.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	if udp.MaxLanes(im) != udp.NumLanes {
		t.Fatalf("tiny program should fit all %d lanes", udp.NumLanes)
	}
	lane, err := udp.RunLane(im, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(lane.Output()) != "abc" {
		t.Fatalf("output %q", lane.Output())
	}
	if udp.RateMBps(3, lane.Stats().Cycles) <= 0 {
		t.Fatal("rate must be positive")
	}

	data := bytes.Repeat([]byte("xyz"), 1000)
	res, err := udp.ExecShards(context.Background(), im, udp.SplitBytes(data, 16))
	if err != nil {
		t.Fatal(err)
	}
	var joined []byte
	for _, o := range res.Outputs {
		joined = append(joined, o...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("parallel run lost data")
	}
}

func TestSplitRecordsFacade(t *testing.T) {
	data := []byte("aa\nbb\ncc\ndd\n")
	shards := udp.SplitRecords(data, 2, '\n')
	if len(shards) != 2 {
		t.Fatalf("%d shards", len(shards))
	}
}

func TestFacadeAssembly(t *testing.T) {
	p, err := udp.ParseAssembly("program t symbol 8\nstate s stream\n  majority -> s { out8 rsym }\n")
	if err != nil {
		t.Fatal(err)
	}
	text := udp.FormatAssembly(p)
	if text == "" {
		t.Fatal("empty formatting")
	}
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := udp.RunLane(im, []byte("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if string(lane.Output()) != "ok" {
		t.Fatalf("output %q", lane.Output())
	}
}

// TestMachineDeterminism: identical inputs produce identical cycle counts
// and outputs across runs (the resume/replay property real tooling needs).
func TestMachineDeterminism(t *testing.T) {
	p := udp.NewProgram("det", 8)
	s := p.AddState("s", udp.ModeStream)
	s.On('x', s, core.AAddi(core.R1, core.R1, 1))
	s.Majority(s, core.AOut8(core.RSym))
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("xyzzy"), 500)
	a, err := udp.RunLane(im, input)
	if err != nil {
		t.Fatal(err)
	}
	b, err := udp.RunLane(im, input)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
	if !bytes.Equal(a.Output(), b.Output()) {
		t.Fatal("outputs differ")
	}
}

// TestExecStreamsBeyondMaxLanes pins the headline of the streaming API: an
// input cut into far more shards than the lane limit streams through the
// pool, which a one-lane-per-shard design could not run at all.
func TestExecStreamsBeyondMaxLanes(t *testing.T) {
	p := udp.NewProgram("echo", 8)
	s := p.AddState("s", udp.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	limit := udp.MaxLanes(im)

	var in bytes.Buffer
	for i := 0; i < 8*limit; i++ {
		in.WriteString("record-of-forty-bytes-padding-xxxxxxxxx\n")
	}
	data := append([]byte(nil), in.Bytes()...)

	// Exec streams them.
	var events int
	res, err := udp.Exec(context.Background(), im, bytes.NewReader(data),
		udp.WithChunker('\n'),
		udp.WithChunkBytes(32),
		udp.WithStatsHook(func(e udp.ShardEvent) { events++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards < 4*limit {
		t.Fatalf("streamed %d shards, want >= %d", res.Shards, 4*limit)
	}
	if events != res.Shards {
		t.Fatalf("%d hook events for %d shards", events, res.Shards)
	}
	if !bytes.Equal(res.Output(), data) {
		t.Fatal("streamed output differs from input")
	}
	if res.Rate() <= 0 {
		t.Fatal("aggregate rate must be positive")
	}
}

func TestExecCancellation(t *testing.T) {
	p := udp.NewProgram("echo2", 8)
	s := p.AddState("s", udp.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no shard may run
	_, err = udp.Exec(ctx, im, bytes.NewReader(bytes.Repeat([]byte("a\n"), 1000)),
		udp.WithChunker('\n'), udp.WithChunkBytes(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExecFailsFast: the first failing shard ends the run, and Exec returns
// its error as a ShardError wrapping the lane's trap.
func TestExecFailsFast(t *testing.T) {
	p := udp.NewProgram("strict", 8)
	s := p.AddState("s", udp.ModeStream)
	s.On('a', s, core.AOut8(core.RSym))
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{[]byte("aaa"), []byte("ab"), []byte("aa")}

	_, err = udp.ExecShards(context.Background(), im, shards, udp.WithMaxLanes(1))
	var se udp.ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("err = %v, want a ShardError for shard 1", err)
	}
	if !errors.Is(err, udp.TrapBadSignature) {
		t.Fatalf("err = %v, want the bad-signature trap", err)
	}
}

// TestCompileOptions threads layout options through the public Compile.
func TestCompileOptions(t *testing.T) {
	p := udp.NewProgram("opt", 8)
	s := p.AddState("s", udp.ModeStream)
	s.On('a', s, core.AOut8(core.RSym), core.AAddi(core.R1, core.R1, 1))
	s.Majority(s, core.AOut8(core.RSym))

	plain, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	uap, err := udp.Compile(p, udp.WithAttachPolicy(udp.PolicyUAPOffset))
	if err != nil {
		t.Fatal(err)
	}
	if plain.CodeBytes() == 0 || uap.CodeBytes() == 0 {
		t.Fatal("both layouts must produce code")
	}
	wide, err := udp.Compile(p, udp.WithWideAttach())
	if err != nil {
		t.Fatal(err)
	}
	if wide.WideAttach == nil {
		t.Fatal("WithWideAttach must produce a wide-attach image")
	}
	if _, err := udp.Compile(p, udp.WithMaxWords(1)); err == nil {
		t.Fatal("a 1-word cap must fail layout")
	}
}

// TestExecEngineSelection pins the WithEngine contract: every tier yields
// identical shard outputs, and ShardEvent.Engine reports the tier that
// actually ran (compiled for a compilable kernel, exactly what was asked
// for interp/decoded).
func TestExecEngineSelection(t *testing.T) {
	p := udp.NewProgram("engines", 8)
	s := p.AddState("s", udp.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{[]byte("aaaa"), []byte("bb"), []byte("c")}
	want := "aaaabbc"

	for _, e := range []udp.Engine{udp.EngineAuto, udp.EngineInterp, udp.EngineDecoded, udp.EngineCompiled} {
		var ran []udp.Engine
		res, err := udp.ExecShards(context.Background(), im, shards,
			udp.WithEngine(e),
			udp.WithStatsHook(func(ev udp.ShardEvent) { ran = append(ran, ev.Engine) }))
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		if got := string(res.Output()); got != want {
			t.Fatalf("engine %v: output %q, want %q", e, got, want)
		}
		expect := e
		if e == udp.EngineAuto {
			expect = udp.EngineCompiled // echo lowers, so auto compiles
		}
		for _, r := range ran {
			if r != expect {
				t.Fatalf("engine %v: shard ran on %v, want %v", e, r, expect)
			}
		}
		if len(ran) != len(shards) {
			t.Fatalf("engine %v: %d events, want %d", e, len(ran), len(shards))
		}
	}
}

// TestNilArgumentsReturnTypedErrors pins the typed-error contract: every
// entry point rejects a nil image or nil source with a sentinel the caller
// can match via errors.Is, instead of panicking mid-run.
func TestNilArgumentsReturnTypedErrors(t *testing.T) {
	ctx := context.Background()
	p := udp.NewProgram("echo", 8)
	s := p.AddState("s", udp.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	im, err := udp.Compile(p)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := udp.Exec(ctx, nil, bytes.NewReader([]byte("x"))); !errors.Is(err, udp.ErrNilImage) {
		t.Fatalf("Exec nil image: err = %v, want ErrNilImage", err)
	}
	if _, err := udp.Exec(ctx, im, nil); !errors.Is(err, udp.ErrNilSource) {
		t.Fatalf("Exec nil source: err = %v, want ErrNilSource", err)
	}
	if _, err := udp.ExecShards(ctx, nil, [][]byte{[]byte("x")}); !errors.Is(err, udp.ErrNilImage) {
		t.Fatalf("ExecShards nil image: err = %v, want ErrNilImage", err)
	}
	if _, err := udp.ExecSource(ctx, nil, sched.Slice([][]byte{[]byte("x")})); !errors.Is(err, udp.ErrNilImage) {
		t.Fatalf("ExecSource nil image: err = %v, want ErrNilImage", err)
	}
	if _, err := udp.ExecSource(ctx, im, nil); !errors.Is(err, udp.ErrNilSource) {
		t.Fatalf("ExecSource nil source: err = %v, want ErrNilSource", err)
	}
	if _, err := udp.RunLane(nil, []byte("x")); !errors.Is(err, udp.ErrNilImage) {
		t.Fatalf("RunLane nil image: err = %v, want ErrNilImage", err)
	}
}
