package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload's end-to-end run and traced run
// in-process on shrunken corpora with one 0.2 s round, so tier-1 exercises
// the whole harness, verification included, in a few seconds.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	ctx := context.Background()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: wl.Name, seed: 7, rounds: 1, roundSeconds: 0.2, trace: trace,
				outDir: out, minSetups: 1, maxSetups: 1, largeRows: 3000, kernelRows: 800,
			}
			var report bytes.Buffer
			res, err := runOne(ctx, cfg, time.Now(), &report)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, trace, err, report.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, report.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", wl.Name, trace, d.Name, m, ok)
				}
				if !strings.Contains(report.String(), d.Name) {
					t.Errorf("%s trace=%v: report does not print %s", wl.Name, trace, d.Name)
				}
			}
		}
		checkTrace(t, filepath.Join(out, wl.Name, "trace.json"))
	}
}

// checkTrace reads a trace.json back and recomputes the ladder from it.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	self := selfTimes(tf.Spans)
	for _, name := range []string{rungMachine, rungSched, rungUDP, rungServer, rungClient, rungBare} {
		if len(self[name]) == 0 {
			t.Errorf("%s: no %q spans", path, name)
		}
	}
	if len(self[rungClient]) != len(self[rungMachine]) {
		t.Errorf("%s: %d client rungs for %d machine rungs", path, len(self[rungClient]), len(self[rungMachine]))
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Fatalf("%s: span %+v ends before it starts", path, s)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "nope", "-trace", "0"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown workload printed a result: %s", stdout.String())
	}
}

func TestCompareSetsFlagsBoundsAndExactMetrics(t *testing.T) {
	mk := func(tput, cycles, heap float64) set {
		return set{wlServeSmall: {
			"throughput_mbps":     {Value: tput},
			"sim_cycles_per_byte": {Value: cycles},
			"retained_heap_mb":    {Value: heap},
		}}
	}
	names := []string{wlServeSmall}
	var w bytes.Buffer
	if err := compareSets(&w, names, mk(100, 3, 0.2), mk(95, 3, 0.9)); err != nil {
		t.Errorf("5 %% slower and 0.7 MB more heap is inside the bounds: %v\n%s", err, w.String())
	}
	if err := compareSets(&w, names, mk(100, 3, 0.2), mk(70, 3, 0.2)); err == nil {
		t.Error("30 % slower passed a 25 % bound")
	}
	if err := compareSets(&w, names, mk(100, 3, 0.2), mk(100, 3.0001, 0.2)); err == nil {
		t.Error("a changed simulated cycle count passed as exact")
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// benchmarkJSON is the driver's description of the benchmark, at the root of
// the repo. The metric tables in metrics.go are the source; run
// `go test ./benchmark -run TestBenchmarkJSON -update` after changing them.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonMetric   `json:"end_to_end"`
	PerLayer   []jsonLayer    `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkJSON() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20, // five rounds of 4 s, the shortest the issue allows
	}
	for _, wl := range workloads {
		b.Workloads = append(b.Workloads, jsonWorkload{wl.Name, wl.Why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayer{d.Name, d.Unit, d.Better})
	}
	return b
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of step with metrics.go; run go test ./benchmark -run TestBenchmarkJSON -update")
	}
}

// TestTablesMeetTheDriverLimits checks the limits the driver refuses a
// benchmark for, before a single run.
func TestTablesMeetTheDriverLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, wl := range workloads {
		name(wl.Name)
		if len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("why of %s has %d characters", wl.Name, len(wl.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s is outside the driver's limits", d.Unit, d.Name)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("better %q of %s", d.Better, d.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s", d.Bound, d.Name)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s among the end-to-end metrics")
	}
}
