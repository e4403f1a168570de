package sched

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"udp/internal/fault"
	"udp/internal/machine"
)

// panicSetup panics on the shards in bad — the host-level failure the
// sandbox must contain.
func panicSetup(bad map[int]bool) machine.LaneSetup {
	return func(l *machine.Lane, shard int) error {
		if bad[shard] {
			panic("poisoned shard")
		}
		return nil
	}
}

// TestPanicIsSandboxedAsTrap: a panic in lane code fails the run with a
// ShardError wrapping a TrapPanic that carries the panic value, instead of
// unwinding the pool.
func TestPanicIsSandboxedAsTrap(t *testing.T) {
	im := echoImage(t)
	shards := [][]byte{[]byte("aa"), []byte("bb"), []byte("cc")}
	var done []int
	_, err := Run(context.Background(), im, Slice(shards), Config{
		Lanes: 1,
		Setup: panicSetup(map[int]bool{1: true}),
		Hook: func(e Event) {
			if e.Err == nil {
				done = append(done, e.Shard)
			}
		},
	})
	var se ShardError
	if !errors.As(err, &se) || se.Shard != 1 {
		t.Fatalf("err = %v, want a ShardError for shard 1", err)
	}
	if !errors.Is(err, fault.TrapPanic) {
		t.Fatalf("err = %v, want TrapPanic", err)
	}
	var tr *fault.Trap
	if !errors.As(err, &tr) || !contains(tr.Detail, "poisoned shard") {
		t.Fatalf("trap %v must carry the panic value", err)
	}
	if len(done) == 0 || done[0] != 0 {
		t.Fatalf("healthy shards finished %v, want shard 0 ahead of the panic", done)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestInjectedPanicRetriesToSuccess(t *testing.T) {
	im := echoImage(t)
	shards := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	var events []Event
	res, err := Run(context.Background(), im, Slice(shards), Config{
		Lanes:  2,
		Inject: &fault.Injector{Seed: 1, Once: true, Rates: map[fault.Kind]float64{fault.TrapPanic: 1}},
		Retry:  RetryPolicy{Max: 2, Backoff: 100 * time.Microsecond},
		Hook:   func(e Event) { events = append(events, e) },
	})
	if err != nil {
		t.Fatalf("Once-injection with retries must converge: %v", err)
	}
	if res.Retries != len(shards) {
		t.Fatalf("Retries = %d, want %d (every shard injected once)", res.Retries, len(shards))
	}
	if len(res.Faults) != len(shards) {
		t.Fatalf("Faults = %d records, want %d", len(res.Faults), len(shards))
	}
	for _, f := range res.Faults {
		if f.Trap.Kind != fault.TrapPanic || !f.Retried || f.Backoff <= 0 {
			t.Fatalf("fault record %+v, want retried panic with backoff", f)
		}
	}
	for i, s := range shards {
		if string(res.Outputs[i]) != string(s) {
			t.Fatalf("shard %d output %q, want %q", i, res.Outputs[i], s)
		}
	}
	// Every shard emits one failed attempt-0 event and one clean attempt-1.
	byShard := map[int][]Event{}
	for _, e := range events {
		byShard[e.Shard] = append(byShard[e.Shard], e)
	}
	for shard, evs := range byShard {
		if len(evs) != 2 {
			t.Fatalf("shard %d emitted %d events, want 2", shard, len(evs))
		}
	}
}

func TestRetriesExhaustedSurfacesTrap(t *testing.T) {
	im := echoImage(t)
	// Rate 1 without Once: every attempt injects, so retries run dry.
	_, err := Run(context.Background(), im, Slice([][]byte{[]byte("x")}), Config{
		Inject: &fault.Injector{Seed: 3, Rates: map[fault.Kind]float64{fault.TrapCycleBudget: 1}},
		Retry: RetryPolicy{
			Max: 2, Backoff: 50 * time.Microsecond,
			RetryableTraps: []fault.Kind{fault.TrapCycleBudget},
		},
	})
	if !errors.Is(err, fault.TrapCycleBudget) {
		t.Fatalf("err = %v, want the exhausted TrapCycleBudget", err)
	}
	var se ShardError
	if !errors.As(err, &se) || se.Shard != 0 {
		t.Fatalf("err = %v, want ShardError for shard 0", err)
	}
}

func TestNonRetryableTrapFailsWithoutRetry(t *testing.T) {
	im := strictImage(t) // only accepts 'a': "b" raises TrapBadSignature
	var events []Event
	_, err := Run(context.Background(), im, Slice([][]byte{[]byte("b")}), Config{
		Retry: RetryPolicy{Max: 3, Backoff: 50 * time.Microsecond}, // nil list = panic only
		Hook:  func(e Event) { events = append(events, e) },
	})
	var se ShardError
	if !errors.As(err, &se) || !errors.Is(err, fault.TrapBadSignature) {
		t.Fatalf("err = %v, want a ShardError wrapping TrapBadSignature", err)
	}
	if len(events) != 1 || events[0].Retried {
		t.Fatalf("events %+v, want one unretried attempt", events)
	}
}

func TestCycleBudgetTrapsPerShardSize(t *testing.T) {
	im := echoImage(t)
	// The echo program needs ~1 cycle per byte; a fractional budget of
	// PerByte=0+Floor=2 traps any shard longer than a couple of symbols.
	_, err := Run(context.Background(), im, Slice([][]byte{[]byte("aaaaaaaa")}), Config{
		Budget: CycleBudget{Floor: 2},
	})
	if !errors.Is(err, fault.TrapCycleBudget) {
		t.Fatalf("err = %v, want TrapCycleBudget from the shard budget", err)
	}
	// A generous per-byte budget clears the same shard.
	if _, err := Run(context.Background(), im, Slice([][]byte{[]byte("aaaaaaaa")}), Config{
		Budget: CycleBudget{PerByte: 64, Floor: 64},
	}); err != nil {
		t.Fatalf("generous budget must pass: %v", err)
	}
}

func TestCycleBudgetFor(t *testing.T) {
	if got := (CycleBudget{}).For(1 << 20); got != 0 {
		t.Fatalf("zero budget gave %d, want 0 (machine default)", got)
	}
	b := CycleBudget{PerByte: 4, Floor: 100}
	if got := b.For(10); got != 100 {
		t.Fatalf("floor not honored: %d", got)
	}
	if got := b.For(1000); got != 4000 {
		t.Fatalf("per-byte not honored: %d", got)
	}
}

func TestRetryBackoffDecorrelatedJitter(t *testing.T) {
	p := RetryPolicy{Max: 3, Backoff: time.Millisecond, Rand: func() float64 { return 1 }}
	d1 := p.next(0)
	d2 := p.next(d1)
	d3 := p.next(d2)
	if d1 != 3*time.Millisecond { // base + 1.0*(3*base - base)
		t.Fatalf("first backoff %v, want 3ms", d1)
	}
	if d2 <= d1 || d3 <= d2 {
		t.Fatalf("backoffs %v, %v, %v must grow at rand=1", d1, d2, d3)
	}
	if cap := 32 * time.Millisecond; p.next(cap) > cap {
		t.Fatal("default cap exceeded")
	}
	// rand=0 floors at the base.
	pz := RetryPolicy{Max: 1, Backoff: time.Millisecond, Rand: func() float64 { return 0 }}
	if got := pz.next(10 * time.Millisecond); got != time.Millisecond {
		t.Fatalf("rand=0 backoff %v, want base", got)
	}
}

func TestRetryLandsOnDifferentLaneAfterQuarantine(t *testing.T) {
	im := echoImage(t)
	lanes := map[int][]int{} // shard -> lanes that ran it
	var shard0Lanes []int
	res, err := Run(context.Background(), im, Slice([][]byte{[]byte("q")}), Config{
		Lanes:  2,
		Inject: &fault.Injector{Seed: 5, Once: true, Rates: map[fault.Kind]float64{fault.TrapPanic: 1}},
		Retry:  RetryPolicy{Max: 1, Backoff: 50 * time.Microsecond},
		Hook: func(e Event) {
			lanes[e.Shard] = append(lanes[e.Shard], e.Lane)
			if e.Shard == 0 {
				shard0Lanes = append(shard0Lanes, e.Lane)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LanesQuarantined != 1 {
		t.Fatalf("LanesQuarantined = %d, want 1", res.LanesQuarantined)
	}
	if len(shard0Lanes) != 2 {
		t.Fatalf("shard 0 ran %d times, want 2", len(shard0Lanes))
	}
	// Whatever worker picks the retry up, the faulted lane object is gone:
	// the panic quarantined it, so even a same-index pickup is a fresh lane.
	if string(res.Outputs[0]) != "q" {
		t.Fatalf("retried shard output %q", res.Outputs[0])
	}
}

// TestFailFastDrainsInflightLanes pins the drain contract: when one shard
// fails under FailFast, Run interrupts the other in-flight lanes and does
// not return until they have exited — no lane keeps running after Exec
// returns.
func TestFailFastDrainsInflightLanes(t *testing.T) {
	im := echoImage(t)
	big := make([]byte, 1<<20) // ~1M dispatches: far beyond one interrupt stride
	shards := [][]byte{big, []byte("b")}
	inflight := make(chan struct{})
	done := make(chan struct{})
	var order []int
	cfg := Config{
		Lanes: 2,
		Setup: func(l *machine.Lane, shard int) error {
			if shard == 0 {
				close(inflight) // the big shard is on a lane now
			}
			if shard == 1 {
				<-inflight // fail only once the big shard is running
				return errors.New("deliberate failure")
			}
			return nil
		},
		Hook: func(e Event) { order = append(order, e.Shard) },
	}
	go func() {
		defer close(done)
		_, err := Run(context.Background(), im, Slice(shards), cfg)
		if err == nil {
			t.Error("want the deliberate failure")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("fail-fast did not drain the in-flight lane (interrupt not delivered)")
	}
}

// TestRunReturnsAfterCancelWithSlowShard pins prompt cancellation drain:
// shards of ~2^20 dispatches each from an endless source are interrupted
// mid-flight, so Run returns promptly instead of draining 2^33-cycle work.
func TestRunReturnsAfterCancelWithSlowShard(t *testing.T) {
	im := echoImage(t)
	big := make([]byte, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	cfg := Config{
		Lanes: 1,
		Setup: func(l *machine.Lane, shard int) error {
			once.Do(func() { close(started) })
			return nil
		},
	}
	// Endless source: cancellation is the only way out.
	src := sourceFunc(func() ([]byte, error) { return big, nil })
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, im, src, cfg)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancel did not interrupt the in-flight shard")
	}
}

func TestFaultRecordsFlowThroughEvents(t *testing.T) {
	im := strictImage(t)
	var traps []*fault.Trap
	_, err := Run(context.Background(), im, Slice([][]byte{[]byte("ab"), []byte("aa")}), Config{
		Lanes: 1,
		Hook: func(e Event) {
			if e.Trap != nil {
				traps = append(traps, e.Trap)
			}
		},
	})
	if len(traps) != 1 || traps[0].Kind != fault.TrapBadSignature {
		t.Fatalf("hook saw traps %v, want one TrapBadSignature", traps)
	}
	var se ShardError
	var tr *fault.Trap
	if !errors.As(err, &se) || se.Shard != 0 || !errors.As(err, &tr) || tr != traps[0] {
		t.Fatalf("err = %v, want shard 0's ShardError wrapping the trap the hook saw", err)
	}
}

// FuzzRecords pins the record chunker invariants under arbitrary input,
// chunk size and separator: no bytes lost or duplicated, and every
// non-final shard ends on the separator when one exists in range.
func FuzzRecords(f *testing.F) {
	f.Add([]byte("a,b,c\nd,e,f\n"), 8, byte('\n'))
	f.Add([]byte(""), 1, byte('\n'))
	f.Add([]byte("no separators at all"), 4, byte(';'))
	f.Add([]byte("\n\n\n"), 2, byte('\n'))
	f.Fuzz(func(t *testing.T, data []byte, chunk int, sep byte) {
		if chunk < 1 || chunk > 1<<16 || len(data) > 1<<16 {
			t.Skip()
		}
		src := Records(bytes.NewReader(data), chunk, sep)
		var joined []byte
		var shards int
		for {
			s, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("chunker errored on clean input: %v", err)
			}
			if len(s) == 0 {
				t.Fatal("chunker yielded an empty shard")
			}
			joined = append(joined, s...)
			shards++
			if shards > len(data)+2 {
				t.Fatal("chunker yields more shards than bytes")
			}
		}
		if !bytes.Equal(joined, data) {
			t.Fatalf("chunker lost or duplicated bytes: %d in, %d out", len(data), len(joined))
		}
	})
}
