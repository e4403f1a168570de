package server

import (
	"bytes"
	"context"
	"net/http/httptest"
	"runtime"
	"testing"

	"udp/internal/client"
	"udp/internal/etl"
)

// BenchmarkServerRequestAllocs pins the per-request allocation cost of the
// transform path: one POST /v1/transform/csvpipe per iteration over a 64 KiB
// lineitem body through an in-process handler. Run with -benchmem; the
// "allocs/req" metric is the whole-process Mallocs delta per request (server
// handler + executor + client), the number the docs/PERF.md baseline table
// tracks.
func BenchmarkServerRequestAllocs(b *testing.B) {
	data := etl.LineitemCSV(912, 20170101)
	if idx := bytes.LastIndexByte(data, '\n'); idx > 0 {
		data = data[:idx+1]
	}

	srv := New(Options{MaxInflight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cli := client.New(ts.URL, ts.Client())

	// Warm caches (program compile, lane pools, slab rings) outside the
	// measured window.
	if _, err := cli.TransformBytes(context.Background(), "csvpipe", data); err != nil {
		b.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := cli.TransformBytes(context.Background(), "csvpipe", data)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty transform output")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/req")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N), "B/req")
}

// BenchmarkServerRequestAllocsGzip is the compressed-upload twin: the body
// travels gzip-encoded, exercising the server's pooled gzip.Reader path.
func BenchmarkServerRequestAllocsGzip(b *testing.B) {
	data := etl.LineitemCSV(912, 20170101)
	if idx := bytes.LastIndexByte(data, '\n'); idx > 0 {
		data = data[:idx+1]
	}

	srv := New(Options{MaxInflight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cli := client.New(ts.URL, ts.Client())

	if _, err := cli.TransformGzipBytes(context.Background(), "csvpipe", data); err != nil {
		b.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.TransformGzipBytes(context.Background(), "csvpipe", data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/req")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N), "B/req")
}

// TestServerSmallRequestByteBudget gates the heap a warm 4 KiB request
// costs end to end (client, net/http, handler, executor, lane), by bytes and
// by object count. A count alone cannot see a bank-sized buffer: when lanes
// allocated their own bank windows and the chunker its own scratch, two
// objects in two hundred were 97 of 128 KiB — about 127 KiB/request here.
// With every bank-sized buffer drawn from the slab manager a request cost
// about 27 KiB, 9 KiB of it a shard queue sized for 64 lanes; with the
// queue sized to the host workers (2 × min(lanes, GOMAXPROCS) slots) it
// costs about 18 KiB in about 182 objects, nearly all of them net/http's
// and the client's. The count ceiling leaves 10 % over that. Under the
// race detector a request costs about 37 KiB, so the byte budget there
// stays at the 48 KiB it was before the queue was sized to the host.
func TestServerSmallRequestByteBudget(t *testing.T) {
	const allocCeiling = 200
	budget := 24 << 10
	if raceEnabled {
		budget = 48 << 10
	}
	data := etl.LineitemCSV(64, 20170101)
	data = data[:bytes.LastIndexByte(data[:4<<10], '\n')+1]

	srv := New(Options{MaxInflight: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cli := client.New(ts.URL, ts.Client())
	request := func() {
		out, err := cli.TransformBytes(context.Background(), "csvpipe", data)
		if err != nil || len(out) == 0 {
			t.Fatalf("%d bytes back, err %v", len(out), err)
		}
	}
	for i := 0; i < 20; i++ { // compile, load-time window, slab rings, connection
		request()
	}

	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		request()
	}
	runtime.ReadMemStats(&m1)
	perReq := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	allocsPerReq := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.0f B/req, %.1f allocs/req for a %d-byte body", perReq, allocsPerReq, len(data))
	if perReq > float64(budget) {
		t.Fatalf("%.0f B/req for a %d-byte csvpipe body, budget %d: a bank-sized buffer is back on the per-request heap",
			perReq, len(data), budget)
	}
	if allocsPerReq > allocCeiling {
		t.Fatalf("%.1f allocs/req for a %d-byte csvpipe body, ceiling %d", allocsPerReq, len(data), allocCeiling)
	}
}
