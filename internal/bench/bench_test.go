package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"udp"
)

func TestExecReportShape(t *testing.T) {
	r, err := Exec(1, 7, udp.EngineAuto)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "exec" || r.Rows != RowsPerScale || r.InputBytes == 0 {
		t.Fatalf("bad report %+v", r)
	}
	if r.ThroughputMBps <= 0 || r.SimulatedMBps <= 0 {
		t.Fatalf("throughput missing: %+v", r)
	}
	if r.Samples == 0 || r.P50Ms < 0 || r.P99Ms < r.P50Ms {
		t.Fatalf("latency percentiles inconsistent: %+v", r)
	}
	if r.Engine != "compiled" {
		t.Fatalf("overall pass ran on %q, want compiled", r.Engine)
	}
	// EngineAuto measures every kernel on every tier.
	perKernel := make(map[string]map[string]bool)
	for _, k := range r.Kernels {
		if k.Engine == "" {
			t.Fatalf("kernel row without engine: %+v", k)
		}
		if perKernel[k.Kernel] == nil {
			perKernel[k.Kernel] = make(map[string]bool)
		}
		perKernel[k.Kernel][k.Engine] = true
	}
	for kernel, engines := range perKernel {
		for _, want := range []string{"compiled", "decoded", "interp"} {
			if !engines[want] {
				t.Errorf("%s: missing %s row", kernel, want)
			}
		}
	}
}

func TestExecSingleEngine(t *testing.T) {
	r, err := Exec(1, 7, udp.EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine != "interp" {
		t.Fatalf("overall pass ran on %q, want interp", r.Engine)
	}
	for _, k := range r.Kernels {
		if k.Engine != "interp" {
			t.Fatalf("kernel %s ran on %q, want interp", k.Kernel, k.Engine)
		}
	}
}

func TestCompareEngineGate(t *testing.T) {
	write := func(t *testing.T, r *Report) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "BENCH_exec.json")
		if err := WriteJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Old report predates the tiered engine: engineless rows.
	old := &Report{Name: "exec", ThroughputMBps: 40, Kernels: []KernelReport{
		{Kernel: "echo", ThroughputMBps: 40},
	}}
	good := &Report{Name: "exec", ThroughputMBps: 80, Kernels: []KernelReport{
		{Kernel: "echo", Engine: "compiled", ThroughputMBps: 90, P50Ms: 2.0},
		{Kernel: "echo", Engine: "decoded", ThroughputMBps: 60, P50Ms: 3.0},
	}}
	var out strings.Builder
	if err := Compare(write(t, old), write(t, good), &out); err != nil {
		t.Fatalf("gate tripped on a faster compiled tier: %v\n%s", err, out.String())
	}
	// The old engineless row must diff against the new compiled row.
	if !strings.Contains(out.String(), "+125.0%") {
		t.Fatalf("old default row not matched to new compiled row:\n%s", out.String())
	}
	bad := &Report{Name: "exec", ThroughputMBps: 80, Kernels: []KernelReport{
		{Kernel: "echo", Engine: "compiled", ThroughputMBps: 50, P50Ms: 4.0},
		{Kernel: "echo", Engine: "decoded", ThroughputMBps: 60, P50Ms: 3.0},
	}}
	out.Reset()
	if err := Compare(write(t, old), write(t, bad), &out); err == nil {
		t.Fatalf("gate missed a compiled tier slower than decoded:\n%s", out.String())
	}
}

// TestCompareAllocGateSeesBytes: two buffers of 16 KiB are two objects in
// two hundred; only the byte count shows them.
func TestCompareAllocGateSeesBytes(t *testing.T) {
	write := func(r *Report) string {
		path := filepath.Join(t.TempDir(), "BENCH_server.json")
		if err := WriteJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := &Report{Name: "server", ThroughputMBps: 40, AllocsPerRequest: 200, BytesPerRequest: 120 << 10}
	var out strings.Builder
	same := &Report{Name: "server", ThroughputMBps: 40, AllocsPerRequest: 205, BytesPerRequest: 125 << 10}
	if err := Compare(write(old), write(same), &out); err != nil {
		t.Fatalf("gate tripped inside the band: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "B/request") {
		t.Fatalf("bytes row missing:\n%s", out.String())
	}
	fat := &Report{Name: "server", ThroughputMBps: 40, AllocsPerRequest: 202, BytesPerRequest: 152 << 10}
	if err := Compare(write(old), write(fat), &out); err == nil {
		t.Fatalf("gate missed 32 KiB more per request in two more objects:\n%s", out.String())
	}
	legacy := &Report{Name: "server", ThroughputMBps: 40, AllocsPerRequest: 200}
	if err := Compare(write(legacy), write(fat), &out); err != nil {
		t.Fatalf("a report predating bytes_per_request must pass vacuously: %v", err)
	}
}

func TestServerReportShapeAndJSON(t *testing.T) {
	// Tiny load: 2 clients x 2 passes over 64 KiB request bodies keeps this
	// fast.
	r, err := Server(1, 2, 2, 64<<10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.Errors != 0 {
		t.Fatalf("%d failed requests", r.Errors)
	}
	if r.Passes != 4 || r.Samples != 4 || r.ThroughputMBps <= 0 {
		t.Fatalf("bad report %+v", r)
	}
	if r.AllocsPerRequest <= 0 || r.BytesPerRequest <= 0 {
		t.Fatalf("allocation counters missing: %+v", r)
	}
	if r.InputBytes > 64<<10 || r.Rows <= 0 {
		t.Fatalf("req-bytes cut not applied: %+v", r)
	}
	path := filepath.Join(t.TempDir(), "BENCH_server.json")
	if err := WriteJSON(path, r); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "server" || back.P99Ms < back.P50Ms {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}
