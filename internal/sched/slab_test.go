package sched

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"udp/internal/fault"
	"udp/internal/machine"
	"udp/internal/memsys"
)

// outstanding is how many slabs a manager has handed out and not been
// handed back.
func outstanding(m *memsys.Manager) int {
	n := 0
	for _, c := range m.Stats().Classes {
		n += int(c.Gets) - int(c.Puts)
	}
	return n
}

// TestRunReturnsEverySlab: however a run ends — drained, failed fast,
// cancelled mid-shard, retried, or with lanes lost to a panic — every
// chunker, sink and lane slab is back with its manager when Run returns,
// except those of quarantined lanes, which nobody may reuse. The executor's
// own buffers are counted on a private manager; lanes draw from the
// process-wide one, so theirs is counted as its change across the run
// (nothing else in this package's tests runs alongside).
func TestRunReturnsEverySlab(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	private := memsys.New(memsys.Config{})
	shared := mem
	mem = private
	defer func() { mem = shared }()

	var rows bytes.Buffer
	for i := 0; rows.Len() < 40<<10; i++ {
		fmt.Fprintf(&rows, "row-%d,%d\n", i, i*i)
	}
	discard := func(int, []byte) error { return nil }
	// panicOnce panics the first time each shard reaches a lane: after
	// SetInput, so the lane it takes down holds a window and an output slab.
	panicOnce := func() machine.LaneSetup {
		var mu sync.Mutex
		seen := map[int]bool{}
		return func(_ *machine.Lane, shard int) error {
			mu.Lock()
			first := !seen[shard]
			seen[shard] = true
			mu.Unlock()
			if first {
				panic("first attempt")
			}
			return nil
		}
	}

	scenarios := []struct {
		name string
		// run performs one Run and returns how many slabs the lanes it
		// quarantined took with them.
		run func(t *testing.T) int
	}{
		{"drained", func(t *testing.T) int {
			res, err := Run(context.Background(), echoImage(t),
				Records(bytes.NewReader(rows.Bytes()), 4096, '\n'), Config{Lanes: 4, Sink: discard})
			if err != nil || res.Shards < 8 {
				t.Fatalf("res %+v, err %v", res, err)
			}
			return 0
		}},
		{"drained into the result", func(t *testing.T) int {
			res, err := Run(context.Background(), countImage(t),
				Records(bytes.NewReader(rows.Bytes()), 4096, '\n'), Config{Lanes: 2})
			if err != nil || res.Shards < 8 {
				t.Fatalf("res %+v, err %v", res, err)
			}
			return 0
		}},
		{"fail fast", func(t *testing.T) int {
			shards := make([][]byte, 32)
			for i := range shards {
				shards[i] = bytes.Repeat([]byte("a"), 2048)
			}
			shards[5] = []byte("aaab")
			_, err := Run(context.Background(), strictImage(t), Slice(shards), Config{Lanes: 3, Sink: discard})
			if !errors.Is(err, fault.TrapBadSignature) {
				t.Fatalf("err = %v, want the bad-signature trap", err)
			}
			return 0
		}},
		{"cancelled mid-shard", func(t *testing.T) int {
			big := make([]byte, 1<<20) // far beyond one interrupt stride
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			_, err := Run(ctx, echoImage(t),
				sourceFunc(func() ([]byte, error) { return big, nil }),
				Config{Lanes: 2, Sink: discard, Setup: func(*machine.Lane, int) error {
					once.Do(cancel)
					return nil
				}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return 0
		}},
		{"retried trap", func(t *testing.T) int {
			res, err := Run(context.Background(), echoImage(t),
				Records(bytes.NewReader(rows.Bytes()), 4096, '\n'), Config{
					Lanes: 2, Sink: discard,
					Inject: &fault.Injector{Seed: 3, Once: true, Rates: map[fault.Kind]float64{fault.TrapCycleBudget: 1}},
					Retry: RetryPolicy{Max: 1, Backoff: 50 * time.Microsecond,
						RetryableTraps: []fault.Kind{fault.TrapCycleBudget}},
				})
			if err != nil || res.Retries != res.Shards || res.LanesQuarantined != 0 {
				t.Fatalf("res %+v, err %v", res, err)
			}
			return 0
		}},
		{"injected panic, no retry", func(t *testing.T) int {
			// The injected panic fires before the lane sees its input, so
			// each quarantined lane holds its bank window and nothing else.
			// The first panic fails the run; the hook counts every lane
			// quarantined before the others drained.
			panics := 0
			_, err := Run(context.Background(), echoImage(t),
				Records(bytes.NewReader(rows.Bytes()), 4096, '\n'), Config{
					Lanes: 3, Sink: discard,
					Inject: &fault.Injector{Seed: 9, Rates: map[fault.Kind]float64{fault.TrapPanic: 1}},
					Hook: func(e Event) {
						if e.Trap != nil && e.Trap.Kind == fault.TrapPanic {
							panics++
						}
					},
				})
			if !errors.Is(err, fault.TrapPanic) || panics == 0 {
				t.Fatalf("err %v after %d panics, want the first panic's trap", err, panics)
			}
			return panics
		}},
		{"panic retried on a fresh lane", func(t *testing.T) int {
			res, err := Run(context.Background(), echoImage(t),
				Records(bytes.NewReader(rows.Bytes()), 4096, '\n'), Config{
					Lanes: 3, Sink: discard, Setup: panicOnce(),
					Retry: RetryPolicy{Max: 1, Backoff: 50 * time.Microsecond},
				})
			if err != nil || res.LanesQuarantined != res.Shards {
				t.Fatalf("res %+v, err %v", res, err)
			}
			return 2 * res.LanesQuarantined
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for round := 0; round < 3; round++ {
				before := outstanding(memsys.Default())
				quarantined := sc.run(t)
				if n := outstanding(private); n != 0 {
					t.Fatalf("round %d: %d chunker/sink slabs not returned", round, n)
				}
				if n := outstanding(memsys.Default()) - before; n != quarantined {
					t.Fatalf("round %d: %d lane slabs not returned, want the %d of quarantined lanes",
						round, n, quarantined)
				}
			}
		})
	}

	private.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond) // retry timers and watchStop unwind after Run returns
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("%d goroutines, %d before the runs", n, goroutines)
	}
}

// TestSinkReorderWindowBoundsTheProducer: with a Sink, a stalled shard 0
// must stop the producer once it is reorderWindow × workers shards ahead of
// the sink cursor. Without the bound, the other workers run the rest of the
// body and every output parks in the reorder window behind shard 0.
func TestSinkReorderWindowBoundsTheProducer(t *testing.T) {
	private := memsys.New(memsys.Config{})
	shared := mem
	mem = private
	defer func() { mem = shared }()

	const shards, lanes = 300, 2
	workers := min(lanes, runtime.GOMAXPROCS(0))
	var rows bytes.Buffer
	for i := 0; i < shards; i++ {
		fmt.Fprintf(&rows, "%063d\n", i) // 64-byte records, one per 64-byte shard
	}
	src := &countingSource{inner: Records(bytes.NewReader(rows.Bytes()), 64, '\n')}
	var got []byte
	cfg := Config{
		Lanes: lanes,
		// Shard 0 holds its lane until 200 later shards could have been
		// pulled, or until a deadline when the producer is held back.
		Setup: func(_ *machine.Lane, shard int) error {
			if shard != 0 {
				return nil
			}
			for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
				src.mu.Lock()
				pulled := src.pulled
				src.mu.Unlock()
				if pulled > 200 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		},
		Sink: func(_ int, out []byte) error {
			got = append(got, out...)
			src.complete()
			return nil
		},
	}
	res, err := Run(context.Background(), echoImage(t), src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != shards || !bytes.Equal(got, rows.Bytes()) {
		t.Fatalf("%d shards, %d of %d bytes delivered", res.Shards, len(got), rows.Len())
	}
	if limit := reorderWindow*workers + workers + 1; src.maxAhead > limit {
		t.Fatalf("source ran %d shards ahead of the sink, want <= %d (unbounded reorder window)",
			src.maxAhead, limit)
	}
	if n := outstanding(private); n != 0 {
		t.Fatalf("%d chunker/sink slabs not returned", n)
	}
}

// wantRecordShards is the chunker's contract written out: a shard ends just
// after the first separator at or beyond the chunk target, the remainder is
// the last shard. How the reader hands out its bytes must not matter.
func wantRecordShards(data []byte, chunk int, sep byte) [][]byte {
	var shards [][]byte
	for len(data) >= chunk {
		i := bytes.IndexByte(data[chunk-1:], sep)
		if i < 0 {
			break
		}
		shards = append(shards, data[:chunk+i])
		data = data[chunk+i:]
	}
	if len(data) > 0 {
		shards = append(shards, data)
	}
	return shards
}

// TestRecordsBoundariesIgnoreReadShape: reading straight into the pooled
// carry-over buffer cuts exactly the shards the copy-through-scratch reader
// cut, for every way a reader can slice the stream.
func TestRecordsBoundariesIgnoreReadShape(t *testing.T) {
	var rows bytes.Buffer
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&rows, "row-%d,%d\n", i, i*i)
	}
	long := append(bytes.Repeat([]byte("y"), 20000), '\n') // outgrows a 4 KiB and an 8 KiB and a 16 KiB slab
	inputs := []struct {
		name string
		data []byte
	}{
		{"rows", rows.Bytes()},
		{"no trailing separator", bytes.TrimSuffix(rows.Bytes(), []byte("\n"))},
		{"record longer than the chunk", append(append(append([]byte("a,b\n"), long...), long...), "tail\n"...)},
		{"no separator at all", bytes.Repeat([]byte("z"), 9000)},
		{"ends exactly on a cut", bytes.Repeat([]byte("0123456\n"), 512)},
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole buffer per read", func(r io.Reader) io.Reader { return r }},
		{"one byte per read", iotest.OneByteReader},
		{"half per read", iotest.HalfReader},
		{"data with EOF", iotest.DataErrReader},
	}
	for _, in := range inputs {
		for _, rd := range readers {
			for _, chunk := range []int{1, 64, 4096, 6000} {
				t.Run(fmt.Sprintf("%s/%s/%d", in.name, rd.name, chunk), func(t *testing.T) {
					src := Records(rd.wrap(bytes.NewReader(in.data)), chunk, '\n')
					want := wantRecordShards(in.data, chunk, '\n')
					for i := 0; ; i++ {
						got, err := src.Next()
						if err == io.EOF {
							if i != len(want) {
								t.Fatalf("%d shards, want %d", i, len(want))
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if i >= len(want) || !bytes.Equal(got, want[i]) {
							t.Fatalf("shard %d is %d bytes and differs from the contract", i, len(got))
						}
						src.(Recycler).Recycle(got)
					}
				})
			}
		}
	}
}

// TestStoppedRunsBalanceSlabs: a run over a recycling source (Records or
// Chunks) that stops early — cancelled mid-body, with or without retries
// backing off, or failed fast by a trap — hands back every chunker and
// sink slab it took: the shard a worker dequeued after the cancel, the
// shard an interrupted lane was running, the shards still queued, a shard
// waiting out its retry backoff, the shard the producer held, and the
// chunker's carry-over.
func TestStoppedRunsBalanceSlabs(t *testing.T) {
	private := memsys.New(memsys.Config{})
	shared := mem
	mem = private
	defer func() { mem = shared }()

	var rows bytes.Buffer
	for i := 0; rows.Len() < 4<<20; i++ {
		fmt.Fprintf(&rows, "row-%d,%d,%d\n", i, i*i, i%7)
	}
	discard := func(int, []byte) error { return nil }
	scenarios := []struct {
		name string
		run  func(t *testing.T, round int) error
		want []error // the run ends with one of these
	}{
		{"cancelled at shard 50", func(t *testing.T, _ int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := Run(ctx, echoImage(t), Records(bytes.NewReader(rows.Bytes()), 4096, '\n'),
				Config{Lanes: 4, Sink: discard, Setup: func(_ *machine.Lane, shard int) error {
					if shard == 50 {
						cancel()
					}
					return nil
				}})
			return err
		}, []error{context.Canceled}},
		{"failed fast by a trap", func(t *testing.T, round int) error {
			_, err := Run(context.Background(), echoImage(t), Records(bytes.NewReader(rows.Bytes()), 4096, '\n'),
				Config{Lanes: 4, Sink: discard, Inject: &fault.Injector{
					Seed: uint64(round), Rates: map[fault.Kind]float64{fault.TrapCycleBudget: 0.02}}})
			return err
		}, []error{fault.TrapCycleBudget}},
		{"chunks cancelled at shard 50", func(t *testing.T, _ int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := Run(ctx, echoImage(t), Chunks(bytes.NewReader(rows.Bytes()), 4096),
				Config{Lanes: 4, Sink: discard, Setup: func(_ *machine.Lane, shard int) error {
					if shard == 50 {
						cancel()
					}
					return nil
				}})
			return err
		}, []error{context.Canceled}},
		{"chunks failed fast by a trap", func(t *testing.T, round int) error {
			_, err := Run(context.Background(), echoImage(t), Chunks(bytes.NewReader(rows.Bytes()), 4096),
				Config{Lanes: 4, Sink: discard, Inject: &fault.Injector{
					Seed: uint64(round), Rates: map[fault.Kind]float64{fault.TrapCycleBudget: 0.02}}})
			return err
		}, []error{fault.TrapCycleBudget}},
		// A shard that traps after the cancel is not retried, and its
		// failure may end the run before the cancel does.
		{"cancelled with retries backing off", func(t *testing.T, round int) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err := Run(ctx, echoImage(t), Records(bytes.NewReader(rows.Bytes()), 4096, '\n'),
				Config{Lanes: 4, Sink: discard,
					Inject: &fault.Injector{
						Seed: uint64(round), Rates: map[fault.Kind]float64{fault.TrapCycleBudget: 0.1}},
					Retry: RetryPolicy{Max: 8, Backoff: 5 * time.Millisecond,
						RetryableTraps: []fault.Kind{fault.TrapCycleBudget}},
					Setup: func(_ *machine.Lane, shard int) error {
						if shard == 50 {
							cancel()
						}
						return nil
					}})
			return err
		}, []error{context.Canceled, fault.TrapCycleBudget}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				err := sc.run(t, round)
				ok := false
				for _, want := range sc.want {
					ok = ok || errors.Is(err, want)
				}
				if !ok {
					t.Fatalf("round %d: err = %v, want one of %v", round, err, sc.want)
				}
				if n := outstanding(private); n != 0 {
					t.Fatalf("round %d: %d chunker/sink slabs not returned", round, n)
				}
			}
		})
	}
	private.Close()
}
