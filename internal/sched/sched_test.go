package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"udp/internal/builtins"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/machine"
)

// echoImage lays out the echo builtin, which copies every symbol through.
func echoImage(t *testing.T) *effclip.Image {
	t.Helper()
	im, err := effclip.Layout(builtins.Program("echo"), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// countImage compiles a stateful program: for every symbol it increments a
// counter held in lane scratch memory and emits the running count — so any
// memory leaking across a lane reuse shows up in the output.
func countImage(t *testing.T) *effclip.Image {
	t.Helper()
	const ctr = 4096
	p := core.NewProgram("count", 8)
	p.DataBase = ctr
	p.DataBytes = 16
	s := p.AddState("s", core.ModeStream)
	s.Majority(s,
		core.ALd8(core.R2, core.R0, ctr),
		core.AAddi(core.R2, core.R2, 1),
		core.ASt8(core.R0, core.R2, ctr),
		core.AOut8(core.R2),
	)
	im, err := effclip.Layout(p, effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// strictImage compiles a program that only accepts 'a' symbols, so any other
// byte raises a dispatch error — the per-shard failure injector.
func strictImage(t *testing.T) *effclip.Image {
	t.Helper()
	p := core.NewProgram("strict", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('a', s, core.AOut8(core.RSym))
	im, err := effclip.Layout(p, effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestStreamsManyMoreShardsThanLanes(t *testing.T) {
	im := echoImage(t)
	limit := machine.MaxLanes(im)
	if limit < 2 {
		t.Fatalf("echo image should fit many lanes, got %d", limit)
	}
	// 8×MaxLanes records of 41 bytes with a 32-byte chunk target: the
	// chunker cuts exactly one record per shard, so the run streams
	// 8×MaxLanes shards over a MaxLanes-sized pool.
	rec := strings.Repeat("x", 40) + "\n"
	data := []byte(strings.Repeat(rec, 8*limit))

	res, err := Run(context.Background(), im, Records(bytes.NewReader(data), 32, '\n'), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards < 4*limit {
		t.Fatalf("want >= %d shards streamed over %d lanes, got %d", 4*limit, limit, res.Shards)
	}
	if res.Lanes != limit {
		t.Fatalf("pool size %d, want MaxLanes %d", res.Lanes, limit)
	}
	if got := res.Output(); !bytes.Equal(got, data) {
		t.Fatalf("reassembled output differs from input: %d vs %d bytes", len(got), len(data))
	}
	if res.InputBytes != len(data) {
		t.Fatalf("InputBytes %d, want %d", res.InputBytes, len(data))
	}
	if res.Cycles == 0 || res.Rate() <= 0 {
		t.Fatal("makespan cycles and rate must be positive")
	}
	if depth := 2 * min(limit, runtime.GOMAXPROCS(0)); res.QueueHighWater > depth {
		t.Fatalf("queue high water %d exceeds the depth %d (2× host workers)", res.QueueHighWater, depth)
	}
}

func TestLaneReuseLeaksNoState(t *testing.T) {
	im := countImage(t)
	shard := []byte("aaaa")
	shards := make([][]byte, 64)
	for i := range shards {
		shards[i] = shard
	}
	// A 2-lane pool forces each lane to run ~32 shards back to back.
	res, err := Run(context.Background(), im, Slice(shards), Config{Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4} // running count restarts at 1 every shard
	for i, out := range res.Outputs {
		if !bytes.Equal(out, want) {
			t.Fatalf("shard %d output %v, want %v (state leaked across lane reuse)", i, out, want)
		}
	}
	if res.Shards != 64 || len(res.Outputs) != 64 {
		t.Fatalf("shards %d outputs %d, want 64", res.Shards, len(res.Outputs))
	}
}

func TestContextCancellationStopsAtShardBoundary(t *testing.T) {
	im := echoImage(t)
	ctx, cancel := context.WithCancel(context.Background())
	const lanes = 2
	done := 0
	cfg := Config{
		Lanes: lanes,
		Hook: func(e Event) {
			done++
			if done == 3 {
				cancel()
			}
		},
	}
	// An endless source: cancellation is the only way the run ends.
	src := sourceFunc(func() ([]byte, error) { return []byte("abcdefgh"), nil })
	_, err := Run(ctx, im, src, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers observe the cancel at a shard boundary: beyond the three
	// hooked shards, only shards already dequeued or in flight may finish.
	if done > 3+2*lanes {
		t.Fatalf("%d shards completed after cancel, want <= %d", done, 3+2*lanes)
	}
}

type sourceFunc func() ([]byte, error)

func (f sourceFunc) Next() ([]byte, error) { return f() }

func TestFailFastStopsTheRun(t *testing.T) {
	im := strictImage(t)
	shards := [][]byte{[]byte("aaa"), []byte("aba"), []byte("aaa")}
	_, err := Run(context.Background(), im, Slice(shards), Config{Lanes: 1})
	var se ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a ShardError", err)
	}
	if se.Shard != 1 {
		t.Fatalf("failed shard %d, want 1", se.Shard)
	}
}

func TestCollectErrorsKeepsGoing(t *testing.T) {
	im := strictImage(t)
	shards := [][]byte{[]byte("aaa"), []byte("aba"), []byte("aa"), []byte("b")}
	res, err := Run(context.Background(), im, Slice(shards), Config{Lanes: 1, Policy: CollectErrors})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 2 {
		t.Fatalf("%d shard errors, want 2: %v", len(res.Errors), res.Errors)
	}
	if res.Errors[0].Shard != 1 || res.Errors[1].Shard != 3 {
		t.Fatalf("failed shards %d,%d, want 1,3", res.Errors[0].Shard, res.Errors[1].Shard)
	}
	if string(res.Outputs[0]) != "aaa" || string(res.Outputs[2]) != "aa" {
		t.Fatal("successful shard outputs missing")
	}
	if res.Outputs[1] != nil || res.Outputs[3] != nil {
		t.Fatal("failed shards must leave nil output slots")
	}
}

func TestLaneSetupRunsPerShard(t *testing.T) {
	// The echo program ignores registers, so use setup to stage a marker
	// in scratch memory... simplest observable: count setup invocations
	// and check the shard indices seen.
	im := echoImage(t)
	shards := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	seen := make([]bool, len(shards))
	var muSeen = make(chan struct{}, 1)
	muSeen <- struct{}{}
	setup := func(l *machine.Lane, shard int) error {
		<-muSeen
		seen[shard] = true
		muSeen <- struct{}{}
		return nil
	}
	if _, err := Run(context.Background(), im, Slice(shards), Config{Setup: setup}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("setup never ran for shard %d", i)
		}
	}
}

func TestSetupErrorHonorsPolicy(t *testing.T) {
	im := echoImage(t)
	shards := [][]byte{[]byte("a"), []byte("b")}
	boom := fmt.Errorf("boom")
	setup := func(l *machine.Lane, shard int) error {
		if shard == 1 {
			return boom
		}
		return nil
	}
	_, err := Run(context.Background(), im, Slice(shards), Config{Lanes: 1, Setup: setup})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestHookReportsThroughput(t *testing.T) {
	im := echoImage(t)
	var events []Event
	cfg := Config{Hook: func(e Event) { events = append(events, e) }}
	shards := [][]byte{[]byte("hello"), []byte("world")}
	if _, err := Run(context.Background(), im, Slice(shards), cfg); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("%d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Bytes != 5 || e.Cycles == 0 || e.Rate() <= 0 {
			t.Fatalf("bad event %+v", e)
		}
		if e.Lane < 0 || e.Err != nil {
			t.Fatalf("bad event %+v", e)
		}
	}
}

func TestRecordsChunkerAlignsOnSeparators(t *testing.T) {
	var b bytes.Buffer
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "row-%d,%d\n", i, i*i)
	}
	data := append([]byte(nil), b.Bytes()...)
	src := Records(bytes.NewReader(data), 64, '\n')
	var shards [][]byte
	for {
		s, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, s)
	}
	if len(shards) < 4 {
		t.Fatalf("only %d shards from %d bytes at 64 B chunks", len(shards), len(data))
	}
	var joined []byte
	for i, s := range shards {
		if i < len(shards)-1 {
			if len(s) < 64 {
				t.Fatalf("shard %d is %d B, want >= chunk size", i, len(s))
			}
			if s[len(s)-1] != '\n' {
				t.Fatalf("shard %d does not end on a record boundary", i)
			}
		}
		joined = append(joined, s...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("chunker lost or duplicated bytes")
	}
}

func TestRecordsChunkerGrowsForOversizedRecords(t *testing.T) {
	// One 1000-byte record with a 64-byte chunk target must arrive whole.
	rec := append(bytes.Repeat([]byte("x"), 1000), '\n')
	data := append(append([]byte(nil), rec...), []byte("tail\n")...)
	src := Records(bytes.NewReader(data), 64, '\n')
	first, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, rec) {
		t.Fatalf("oversized record split: got %d B, want %d B", len(first), len(rec))
	}
}

func TestChunksFixedSize(t *testing.T) {
	data := bytes.Repeat([]byte("z"), 130)
	src := Chunks(bytes.NewReader(data), 50)
	var sizes []int
	for {
		s, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(s))
	}
	want := []int{50, 50, 30}
	if len(sizes) != len(want) {
		t.Fatalf("sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes %v, want %v", sizes, want)
		}
	}
}

func TestEmptySourceYieldsEmptyResult(t *testing.T) {
	im := echoImage(t)
	res, err := Run(context.Background(), im, Slice(nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 0 || res.InputBytes != 0 || len(res.Output()) != 0 {
		t.Fatalf("empty source produced %+v", res)
	}
}

func TestSourceErrorAbortsRun(t *testing.T) {
	im := echoImage(t)
	bad := fmt.Errorf("disk on fire")
	n := 0
	src := sourceFunc(func() ([]byte, error) {
		n++
		if n > 3 {
			return nil, bad
		}
		return []byte("ok"), nil
	})
	_, err := Run(context.Background(), im, src, cfgNoHook())
	if !errors.Is(err, bad) {
		t.Fatalf("err = %v, want wrapped source error", err)
	}
}

func cfgNoHook() Config { return Config{} }

func TestNilImageAndNilSourceAreTypedErrors(t *testing.T) {
	im := echoImage(t)
	if _, err := Run(context.Background(), nil, Slice(nil), Config{}); !errors.Is(err, ErrNilImage) {
		t.Fatalf("nil image err = %v, want ErrNilImage", err)
	}
	if _, err := Run(context.Background(), im, nil, Config{}); !errors.Is(err, ErrNilSource) {
		t.Fatalf("nil source err = %v, want ErrNilSource", err)
	}
}

func TestRecordsEmptyInput(t *testing.T) {
	src := Records(bytes.NewReader(nil), 8, '\n')
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("empty input: err = %v, want io.EOF", err)
	}
	// EOF must be sticky.
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("second Next: err = %v, want io.EOF", err)
	}
}

func TestRecordsInputWithoutTrailingSeparator(t *testing.T) {
	src := Records(strings.NewReader("abc\ndef"), 4, '\n')
	first, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "abc\n" {
		t.Fatalf("first shard %q, want %q", first, "abc\n")
	}
	second, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != "def" {
		t.Fatalf("trailing bytes without separator must form the last shard, got %q", second)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// TestRecordsSingleRecordSpanningManyChunks pins the growth path: one record
// many times larger than the chunk target, delivered by a reader that
// returns one byte at a time, must arrive as a single shard.
func TestRecordsSingleRecordSpanningManyChunks(t *testing.T) {
	rec := append(bytes.Repeat([]byte("y"), 10*64+3), '\n')
	data := append(append([]byte(nil), rec...), []byte("z\n")...)
	src := Records(iotest.OneByteReader(bytes.NewReader(data)), 64, '\n')
	first, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, rec) {
		t.Fatalf("oversized record: got %d bytes, want %d", len(first), len(rec))
	}
	second, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != "z\n" {
		t.Fatalf("following record %q, want %q", second, "z\n")
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

// countingSource wraps a Source and records how far the producer ran ahead
// of shard completions — the backpressure invariant.
type countingSource struct {
	inner     Source
	mu        sync.Mutex
	pulled    int
	completed int
	maxAhead  int
}

func (c *countingSource) Next() ([]byte, error) {
	c.mu.Lock()
	c.pulled++
	if ahead := c.pulled - c.completed; ahead > c.maxAhead {
		c.maxAhead = ahead
	}
	c.mu.Unlock()
	return c.inner.Next()
}

func (c *countingSource) complete() {
	c.mu.Lock()
	c.completed++
	c.mu.Unlock()
}

// Recycle hands a finished shard back to the wrapped source when that
// source recycles its buffers.
func (c *countingSource) Recycle(buf []byte) {
	if r, ok := c.inner.(Recycler); ok {
		r.Recycle(buf)
	}
}

// TestQueueBackpressureWithSlowConsumer pins that a slow lane pool stalls
// the producer at the bounded queue instead of buffering the whole input:
// the source is never more than queue depth + pool size + 1 shards ahead of
// the completions. One lane runs on one worker, so the queue holds 2.
func TestQueueBackpressureWithSlowConsumer(t *testing.T) {
	im := echoImage(t)
	const shards, lanes, depth = 48, 1, 2
	in := make([][]byte, shards)
	for i := range in {
		in[i] = []byte("abcdefgh")
	}
	src := &countingSource{inner: Slice(in)}
	cfg := Config{
		Lanes: lanes,
		Setup: func(l *machine.Lane, shard int) error {
			time.Sleep(500 * time.Microsecond) // the slow consumer
			return nil
		},
		Hook: func(e Event) { src.complete() },
	}
	res, err := Run(context.Background(), im, src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != shards {
		t.Fatalf("ran %d shards, want %d", res.Shards, shards)
	}
	if res.QueueHighWater > depth {
		t.Fatalf("queue high water %d exceeds depth %d", res.QueueHighWater, depth)
	}
	// depth queued + lanes in flight + 1 blocked in the send.
	if limit := depth + lanes + 1; src.maxAhead > limit {
		t.Fatalf("producer ran %d shards ahead of completions, want <= %d (no backpressure)",
			src.maxAhead, limit)
	}
}

func TestSinkStreamsOutputsInOrder(t *testing.T) {
	im := echoImage(t)
	rec := strings.Repeat("r", 40) + "\n"
	data := []byte(strings.Repeat(rec, 64))
	var (
		got  []byte
		last = -1
	)
	cfg := Config{
		Sink: func(shard int, out []byte) error {
			if shard <= last {
				t.Errorf("sink saw shard %d after %d", shard, last)
			}
			last = shard
			got = append(got, out...)
			return nil
		},
	}
	res, err := Run(context.Background(), im, Records(bytes.NewReader(data), 32, '\n'), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("sink stream differs from input: %d vs %d bytes", len(got), len(data))
	}
	// Outputs are not retained when a sink consumes them.
	if out := res.Output(); len(out) != 0 {
		t.Fatalf("Result retained %d output bytes despite sink", len(out))
	}
	if res.Shards < 4 {
		t.Fatalf("want a multi-shard run, got %d", res.Shards)
	}
}

func TestSinkErrorFailsRun(t *testing.T) {
	im := echoImage(t)
	boom := fmt.Errorf("client went away")
	cfg := Config{
		Sink: func(shard int, out []byte) error {
			if shard == 1 {
				return boom
			}
			return nil
		},
	}
	shards := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	_, err := Run(context.Background(), im, Slice(shards), cfg)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
}

func TestSinkSkipsFailedShardsUnderCollectErrors(t *testing.T) {
	im := strictImage(t)
	shards := [][]byte{[]byte("aaa"), []byte("ab"), []byte("aa")}
	var got []byte
	cfg := Config{
		Lanes:  1,
		Policy: CollectErrors,
		Sink:   func(shard int, out []byte) error { got = append(got, out...); return nil },
	}
	res, err := Run(context.Background(), im, Slice(shards), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aaaaa" {
		t.Fatalf("sink got %q, want the two successful shards %q", got, "aaaaa")
	}
	if len(res.Errors) != 1 || res.Errors[0].Shard != 1 {
		t.Fatalf("errors %v, want shard 1", res.Errors)
	}
}

// TestMakespanIsTheListSchedule: Result.Cycles is the schedule the hardware
// would run over the simulated lanes, worked out by hand. Echo costs 3
// cycles a byte, so shards of 5, 3, 3, 4 and 2 bytes cost 15, 9, 9, 12 and 6
// cycles. Over 2 lanes, in stream order, each to the lane with the fewest
// cycles so far: 15 → lane 0 (15), 9 → lane 1 (9), 9 → lane 1 (18),
// 12 → lane 0 (27), 6 → lane 1 (24). The makespan is 27, whichever host
// goroutine ran which shard.
func TestMakespanIsTheListSchedule(t *testing.T) {
	im := echoImage(t)
	shards := [][]byte{[]byte("aaaaa"), []byte("bbb"), []byte("ccc"), []byte("dddd"), []byte("ee")}
	for _, c := range []struct {
		lanes int
		want  uint64
	}{
		{1, 15 + 9 + 9 + 12 + 6}, // one lane runs everything back to back
		{2, 27},
		{3, 21}, // 15 | 9+12 | 9+6: the 12 goes to the first of the two 9s
		{8, 15}, // more lanes than shards: the largest shard
	} {
		for run := 0; run < 20; run++ {
			res, err := Run(context.Background(), im, Slice(shards), Config{Lanes: c.lanes})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != c.want {
				t.Fatalf("%d lanes, run %d: makespan %d, want %d", c.lanes, run, res.Cycles, c.want)
			}
			if res.Total.Cycles != 51 {
				t.Fatalf("%d lanes: Σcycles %d, want 51", c.lanes, res.Total.Cycles)
			}
		}
	}
}

// TestMatchesAndStatsAggregate pins that matches land in shard order and
// counters accumulate across the pool.
func TestMatchesAndStatsAggregate(t *testing.T) {
	p := core.NewProgram("accept-a", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('a', s, core.AAccept(7))
	s.Majority(s)
	im, err := effclip.Layout(p, effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := [][]byte{[]byte("xax"), []byte("aa"), []byte("xxx")}
	res, err := Run(context.Background(), im, Slice(shards), Config{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches[0]) != 1 || len(res.Matches[1]) != 2 || len(res.Matches[2]) != 0 {
		t.Fatalf("match counts %d,%d,%d want 1,2,0",
			len(res.Matches[0]), len(res.Matches[1]), len(res.Matches[2]))
	}
	if res.Total.Dispatches == 0 || res.Total.Cycles == 0 {
		t.Fatal("aggregate stats empty")
	}
}
