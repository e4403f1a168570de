package load_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"udp/internal/load"
	"udp/internal/server"
)

func TestParseMix(t *testing.T) {
	m, err := load.ParseMix("csvpipe=3, echo=2,jsonparse")
	if err != nil {
		t.Fatal(err)
	}
	want := []load.Mix{{Name: "csvpipe", Weight: 3}, {Name: "echo", Weight: 2}, {Name: "jsonparse", Weight: 1}}
	if len(m) != len(want) {
		t.Fatalf("mix = %+v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("mix[%d] = %+v, want %+v", i, m[i], want[i])
		}
	}
	for _, bad := range []string{"a=0", "a=-1", "=3", "a=x"} {
		if _, err := load.ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if m, err := load.ParseMix(""); err != nil || m != nil {
		t.Fatalf("empty mix = %v, %v", m, err)
	}
}

// TestClosedLoopAgainstServer drives a real in-process udpserved with a
// mixed program/gzip workload and checks the report: every request lands,
// clean taxonomy, ordered percentiles, live progress emitted.
func TestClosedLoopAgainstServer(t *testing.T) {
	srv := server.New(server.Options{MaxInflight: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var live strings.Builder
	rep, err := load.Run(context.Background(), load.Config{
		Target:      ts.URL,
		Workers:     4,
		Requests:    40,
		Programs:    []load.Mix{{Name: "echo", Weight: 1}, {Name: "csvpipe", Weight: 2}, {Name: "histogram16", Weight: 1}},
		SizeMin:     512,
		SizeMax:     4096,
		GzipRatio:   0.5,
		Seed:        7,
		ReportEvery: 20 * time.Millisecond,
		ReportTo:    &live,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 || rep.Errors != 0 || rep.Samples != 40 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Classes[load.Class2xx] != 40 || rep.Statuses["200"] != 40 {
		t.Fatalf("taxonomy off: classes %v statuses %v", rep.Classes, rep.Statuses)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms || rep.MaxMs < rep.P99Ms {
		t.Fatalf("percentiles inconsistent: %+v", rep)
	}
	if rep.ThroughputMBps <= 0 || rep.BytesIn == 0 || rep.BytesOut == 0 {
		t.Fatalf("throughput missing: %+v", rep)
	}
	total := 0
	for _, n := range rep.Programs {
		total += n
	}
	if total != 40 || rep.Programs["csvpipe"] == 0 {
		t.Fatalf("program mix off: %v", rep.Programs)
	}
	if !strings.Contains(live.String(), "reqs") {
		t.Fatalf("no live progress emitted:\n%s", live.String())
	}
}

// overlapWriter fails the test when two Write calls overlap or one comes
// after closed is set. Each call holds the writer for a while, so a
// progress tick in flight when Run writes its final line is caught without
// the race detector.
type overlapWriter struct {
	t      *testing.T
	busy   atomic.Bool
	closed atomic.Bool
	lines  atomic.Int64
}

func (w *overlapWriter) Write(p []byte) (int, error) {
	if w.closed.Load() {
		w.t.Errorf("progress line written after Run returned: %q", p)
	}
	if !w.busy.CompareAndSwap(false, true) {
		w.t.Errorf("overlapping progress writes: %q", p)
		return len(p), nil
	}
	time.Sleep(2 * time.Millisecond)
	w.lines.Add(1)
	w.busy.Store(false)
	return len(p), nil
}

// TestRunProgressWritesDoNotOverlap: Run's final progress line waits for the
// ticker goroutine to exit, so with a tick shorter than a write the two
// never overlap and nothing is written after Run returns.
func TestRunProgressWritesDoNotOverlap(t *testing.T) {
	srv := server.New(server.Options{MaxInflight: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for round := 0; round < 5; round++ {
		w := &overlapWriter{t: t}
		if _, err := load.Run(context.Background(), load.Config{
			Target:      ts.URL,
			Workers:     2,
			Requests:    8,
			Programs:    []load.Mix{{Name: "echo", Weight: 1}},
			SizeMin:     256,
			SizeMax:     1024,
			Seed:        int64(round),
			ReportEvery: time.Millisecond,
			ReportTo:    w,
		}); err != nil {
			t.Fatal(err)
		}
		w.closed.Store(true)
		if w.lines.Load() == 0 {
			t.Fatal("no progress line written")
		}
		time.Sleep(5 * time.Millisecond) // a stray tick would land here
	}
}

// TestLoaderHonorsRetryAfter pins the loader side of the Retry-After
// contract: a 429 with a hint is retried no sooner than the hint, and the
// recovered request counts as a success with its backoff on the books.
func TestLoaderHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"saturated"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	t0 := time.Now()
	rep, err := load.Run(context.Background(), load.Config{
		Target:   ts.URL,
		Workers:  1,
		Requests: 1,
		Programs: []load.Mix{{Name: "echo", Weight: 1}},
		Retries:  2,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 1 || rep.Errors != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Attempts != 2 || rep.Backoffs != 1 || rep.BackoffSeconds < 1 {
		t.Fatalf("Retry-After not honored: attempts=%d backoffs=%d backoff=%.2fs",
			rep.Attempts, rep.Backoffs, rep.BackoffSeconds)
	}
	if time.Since(t0) < time.Second {
		t.Fatalf("request returned before the 1s Retry-After hint")
	}
}

// TestErrorTaxonomyBuckets429 pins the failure path: without retries, a
// saturated server shows up as class "429" and trips the error budget.
func TestErrorTaxonomyBuckets429(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"saturated"}`))
	}))
	defer ts.Close()

	rep, err := load.Run(context.Background(), load.Config{
		Target:   ts.URL,
		Workers:  2,
		Requests: 6,
		Programs: []load.Mix{{Name: "echo", Weight: 1}},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 6 || rep.Classes[load.Class429] != 6 || rep.Samples != 0 {
		t.Fatalf("taxonomy off: %+v", rep)
	}

	slo := load.SLO{ErrorBudget: 0.5, Allow: []string{load.Class429}}
	if v := slo.Check(rep); len(v) != 1 || !strings.Contains(v[0], "budget") {
		t.Fatalf("error budget not enforced: %v", v)
	}
	strict := load.SLO{Allow: nil}
	if v := strict.Check(rep); len(v) == 0 {
		t.Fatal("non-2xx outside allowed classes not flagged")
	}
	loose := load.SLO{ErrorBudget: 1, Allow: []string{load.Class429}}
	if v := loose.Check(rep); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestSLOCheckLatencyAndLeaks(t *testing.T) {
	rep := &load.Report{Requests: 100, P99Ms: 120, Classes: map[string]int{load.Class2xx: 100}}
	if v := (load.SLO{P99Ms: 100}).Check(rep); len(v) != 1 {
		t.Fatalf("p99 breach not flagged: %v", v)
	}
	if v := (load.SLO{P99Ms: 200, MinRequests: 1000}).Check(rep); len(v) != 1 {
		t.Fatalf("min-requests floor not flagged: %v", v)
	}

	slo := load.SLO{GoroutineSlack: 10, HeapFactor: 2, HeapFloorMB: 1}
	before := load.ProcSample{Goroutines: 20, HeapAlloc: 10e6}
	if v := slo.CheckLeaks(before, load.ProcSample{Goroutines: 25, HeapAlloc: 15e6}); len(v) != 0 {
		t.Fatalf("clean samples flagged: %v", v)
	}
	if v := slo.CheckLeaks(before, load.ProcSample{Goroutines: 40, HeapAlloc: 15e6}); len(v) != 1 {
		t.Fatalf("goroutine leak not flagged: %v", v)
	}
	if v := slo.CheckLeaks(before, load.ProcSample{Goroutines: 25, HeapAlloc: 50e6}); len(v) != 1 {
		t.Fatalf("heap leak not flagged: %v", v)
	}
	// The floor forgives a tiny baseline growing past the factor.
	floor := load.SLO{HeapFactor: 2, HeapFloorMB: 64}
	if v := floor.CheckLeaks(load.ProcSample{HeapAlloc: 1e6}, load.ProcSample{HeapAlloc: 10e6}); len(v) != 0 {
		t.Fatalf("heap floor not applied: %v", v)
	}
}

// TestUnknownProgramFailsFast: Run must reject programs that are not
// builtins, and so have no payload generator, before any load is sent, and
// name the builtins it does know.
func TestUnknownProgramFailsFast(t *testing.T) {
	_, err := load.Run(context.Background(), load.Config{
		Target:   "http://127.0.0.1:1",
		Requests: 1,
		Programs: []load.Mix{{Name: "no-such-kernel", Weight: 1}},
	})
	if err == nil || !strings.Contains(err.Error(), "no builtin payload") || !strings.Contains(err.Error(), "csvpipe") {
		t.Fatalf("err = %v, want payload-generator error listing the builtins", err)
	}
}
