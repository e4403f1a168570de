package obs

import (
	"context"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNamesAndTrailersAligned(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || strings.Contains(name, "stage(") {
			t.Fatalf("stage %d has no canonical name", s)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
		tr := StageTrailer(s)
		if !strings.HasPrefix(tr, "X-Udp-Stage-") {
			t.Fatalf("stage %s trailer = %q, want X-Udp-Stage-* prefix", name, tr)
		}
		if !strings.Contains(StageTrailerList, tr) {
			t.Fatalf("trailer list missing %q: %q", tr, StageTrailerList)
		}
	}
	if StageTrailer(NumStages) != "" {
		t.Fatalf("out-of-range trailer = %q, want empty", StageTrailer(NumStages))
	}
	if got := NumStages.String(); !strings.HasPrefix(got, "stage(") {
		t.Fatalf("out-of-range name = %q", got)
	}
}

func TestStageClockAccumulates(t *testing.T) {
	var c StageClock
	c.Add(StageQueue, 2*time.Millisecond)
	c.Add(StageQueue, 3*time.Millisecond)
	c.Add(StageLane, time.Millisecond)
	c.Add(StageLane, -time.Second) // negative: dropped
	c.Add(NumStages, time.Second)  // out of range: dropped
	c.Add(StageWrite, 0)           // zero: dropped

	if got := c.NS(StageQueue); got != int64(5*time.Millisecond) {
		t.Fatalf("queue = %d ns, want 5ms", got)
	}
	if got := c.NS(StageLane); got != int64(time.Millisecond) {
		t.Fatalf("lane = %d ns, want 1ms", got)
	}
	if got := c.NS(NumStages); got != 0 {
		t.Fatalf("out-of-range NS = %d, want 0", got)
	}
	snap := c.Snapshot()
	if snap[StageQueue] != int64(5*time.Millisecond) || snap[StageWrite] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
	ms := StagesMs(snap)
	if len(ms) != int(NumStages) || ms["queue_wait"] != 5 || ms["lane_run"] != 1 {
		t.Fatalf("StagesMs = %v", ms)
	}
}

func TestStageClockNilSafe(t *testing.T) {
	var c *StageClock
	c.Add(StageLane, time.Second)
	if c.NS(StageLane) != 0 {
		t.Fatal("nil clock reported time")
	}
	if snap := c.Snapshot(); snap != ([NumStages]int64{}) {
		t.Fatalf("nil snapshot = %v", snap)
	}
	if ctx := ContextWithStages(context.Background(), nil); StagesFromContext(ctx) != nil {
		t.Fatal("nil clock round-tripped through context")
	}
}

func TestStageClockString(t *testing.T) {
	var c StageClock
	c.Add(StageAdmission, 1500*time.Microsecond)
	s := c.String()
	if !strings.Contains(s, "admission=1.5ms") || !strings.Contains(s, "write=0.0ms") {
		t.Fatalf("String = %q", s)
	}
	if got := strings.Count(s, "="); got != int(NumStages) {
		t.Fatalf("String has %d fields, want %d: %q", got, NumStages, s)
	}
}

func TestContextCarriesStageClock(t *testing.T) {
	clk := &StageClock{}
	ctx := ContextWithStages(context.Background(), clk)
	if got := StagesFromContext(ctx); got != clk {
		t.Fatalf("StagesFromContext = %p, want %p", got, clk)
	}
	if got := StagesFromContext(context.Background()); got != nil {
		t.Fatalf("empty context returned a clock: %p", got)
	}
}

func TestStageReaderAttributesReadTime(t *testing.T) {
	clk := &StageClock{}
	r := StageReader(strings.NewReader("hello"), clk, StageDecode)
	b, err := io.ReadAll(r)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read = %q, %v", b, err)
	}
	if clk.NS(StageDecode) <= 0 {
		t.Fatal("no decode time attributed")
	}
	// A nil clock must not wrap at all — the fast path stays bare.
	plain := strings.NewReader("x")
	if got := StageReader(plain, nil, StageDecode); got != io.Reader(plain) {
		t.Fatal("nil clock wrapped the reader")
	}
}

// TestStageClockConcurrent hammers one clock from parallel adders while a
// reader snapshots; the -race build is half the assertion, the exact final
// sums are the other half (atomic adds must not lose increments).
func TestStageClockConcurrent(t *testing.T) {
	var c StageClock
	const workers = 8
	const adds = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				c.Snapshot()
				_ = c.NS(StageQueue)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := Stage(w % int(NumStages))
			for i := 0; i < adds; i++ {
				c.Add(s, time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	var total int64
	for s := Stage(0); s < NumStages; s++ {
		total += c.NS(s)
	}
	if total != workers*adds {
		t.Fatalf("lost updates: total = %d ns, want %d", total, workers*adds)
	}
}

func TestStageClockAddZeroAlloc(t *testing.T) {
	var c StageClock
	if n := testing.AllocsPerRun(100, func() {
		c.Add(StageLane, time.Microsecond)
		_ = c.NS(StageLane)
		_ = c.Snapshot()
	}); n != 0 {
		t.Fatalf("hot-path stage accounting allocates %.1f per op, want 0", n)
	}
}
