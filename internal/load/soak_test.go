package load

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRecipeJSONDurationsAndDefaults(t *testing.T) {
	src := `{
		"name": "t",
		"server": {"inflight": 4, "drain_grace": "250ms", "fault_inject": "seed=1,panic=0.1"},
		"load": {"workers": 2, "duration": "30s", "programs": "echo", "report_every": "5s"},
		"events": [{"at": "10s", "action": "kill"}],
		"slo": {"p99_ms": 500, "allow": ["net"]},
		"settle": "1s"
	}`
	var r Recipe
	if err := json.Unmarshal([]byte(src), &r); err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Load.Duration.D() != 30*time.Second || r.Server.DrainGrace.D() != 250*time.Millisecond {
		t.Fatalf("durations: %+v", r)
	}
	if r.Events[0].At.D() != 10*time.Second || r.Settle.D() != time.Second {
		t.Fatalf("event/settle durations: %+v", r)
	}
	// Round trip: Dur marshals back to a string.
	out, err := json.Marshal(r.Settle)
	if err != nil || string(out) != `"1s"` {
		t.Fatalf("Dur marshal = %s, %v", out, err)
	}
	if err := json.Unmarshal([]byte(`"not-a-duration"`), new(Dur)); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestRecipeValidateRejectsBadEvents(t *testing.T) {
	base := func() *Recipe {
		return &Recipe{
			Name: "t",
			Load: LoadSpec{Duration: Dur(30 * time.Second), Programs: "echo"},
		}
	}
	cases := []struct {
		name string
		mut  func(*Recipe)
		want string
	}{
		{"no name", func(r *Recipe) { r.Name = "" }, "needs a name"},
		{"no duration", func(r *Recipe) { r.Load.Duration = 0 }, "duration or load.requests"},
		{"bad mix", func(r *Recipe) { r.Load.Programs = "echo=0" }, "weight"},
		{"unknown program", func(r *Recipe) { r.Load.Programs = "echo,nope" }, "no builtin payload"},
		{"bad action", func(r *Recipe) { r.Events = []Event{{Action: "explode"}} }, "unknown action"},
		{"squeeze sans inflight", func(r *Recipe) { r.Events = []Event{{Action: "squeeze"}} }, "inflight > 0"},
		{"degrade sans engine", func(r *Recipe) { r.Events = []Event{{Action: "degrade"}} }, "needs an engine"},
		{"late event", func(r *Recipe) {
			r.Events = []Event{{At: Dur(40 * time.Second), Action: "kill"}}
		}, "after the"},
	}
	for _, tc := range cases {
		r := base()
		tc.mut(r)
		err := r.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestRecipeValidateSortsEvents(t *testing.T) {
	r := &Recipe{
		Name: "t",
		Load: LoadSpec{Duration: Dur(time.Minute), Programs: "echo"},
		Events: []Event{
			{At: Dur(30 * time.Second), Action: "restore"},
			{At: Dur(10 * time.Second), Action: "kill"},
			{At: Dur(20 * time.Second), Action: "squeeze", Inflight: 2},
		},
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	got := []string{r.Events[0].Action, r.Events[1].Action, r.Events[2].Action}
	if !reflect.DeepEqual(got, []string{"kill", "squeeze", "restore"}) {
		t.Fatalf("events not sorted by offset: %v", got)
	}
}

// TestShippedRecipesParse keeps every checked-in recipe loadable — a recipe
// that fails validation would otherwise only be caught by the soak job.
func TestShippedRecipesParse(t *testing.T) {
	paths, err := filepath.Glob("../../scripts/soak/recipes/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped recipes found (err=%v)", err)
	}
	for _, p := range paths {
		r, err := ReadRecipe(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if len(r.SLO.Allow) == 0 || r.SLO.GoroutineSlack == 0 || r.SLO.HeapFactor == 0 {
			t.Errorf("%s: shipped recipes must gate taxonomy and leaks, got %+v", p, r.SLO)
		}
		if r.Load.Seed == 0 {
			t.Errorf("%s: shipped recipes must pin a seed for reproducibility", p)
		}
	}
}

func TestSoakArgsAppliesOverrides(t *testing.T) {
	s := &soakRunner{rec: &Recipe{Server: ServerSpec{
		Inflight:    16,
		Engine:      "auto",
		FaultInject: "seed=7,panic=0.05",
		Retries:     2,
		DrainGrace:  Dur(300 * time.Millisecond),
		Flags:       []string{"-log", "error"},
	}}}
	base := strings.Join(s.args("127.0.0.1:9999"), " ")
	for _, want := range []string{
		"-addr 127.0.0.1:9999", "-max-inflight 16", "-engine auto",
		"-retries 2", "-drain-grace 300ms", "-fault-inject seed=7,panic=0.05", "-log error",
	} {
		if !strings.Contains(base, want) {
			t.Errorf("args missing %q: %s", want, base)
		}
	}

	s.ov = overrides{inflight: 2, engine: "interp"}
	squeezed := strings.Join(s.args("127.0.0.1:9999"), " ")
	if !strings.Contains(squeezed, "-max-inflight 2") || !strings.Contains(squeezed, "-engine interp") {
		t.Fatalf("overrides not applied: %s", squeezed)
	}
	s.ov = overrides{}
	if got := strings.Join(s.args("127.0.0.1:9999"), " "); got != base {
		t.Fatalf("restore did not return to spec: %s", got)
	}
}

func TestAnnounceReMatchesServedReadyLine(t *testing.T) {
	m := announceRe.FindStringSubmatch("udpserved: listening on 127.0.0.1:43210")
	if m == nil || m[1] != "127.0.0.1:43210" {
		t.Fatalf("announce parse = %v", m)
	}
}

// TestSampleProc parses canned /debug/pprof output through the real HTTP
// path and checks the heap sample forces a GC first (?gc=1).
func TestSampleProc(t *testing.T) {
	var sawGC bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/debug/pprof/goroutine":
			fmt.Fprintln(w, "goroutine profile: total 17")
			fmt.Fprintln(w, "5 @ 0x4711 0x4712")
		case "/debug/pprof/heap":
			sawGC = r.URL.Query().Get("gc") == "1"
			fmt.Fprintln(w, "heap profile: 1: 2048 [4: 8192] @ heap/1048576")
			fmt.Fprintln(w, "# HeapAlloc = 2345678")
			fmt.Fprintln(w, "# HeapSys = 12582912")
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	s, err := SampleProc(t.Context(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if s.Goroutines != 17 || s.HeapAlloc != 2345678 {
		t.Fatalf("sample = %+v", s)
	}
	if !sawGC {
		t.Fatal("heap sample did not force a GC (?gc=1)")
	}
}

// TestRunSoakEndToEnd is a miniature soak: a real udpserved subprocess, a
// few seconds of load, one hard kill, leak samples, and a pass verdict. It
// proves the harness mechanics (spawn, announce parse, port pinning across
// the restart, pprof sampling) without the minutes-long recipe.
func TestRunSoakEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a real server; skipped in -short")
	}
	bin, err := BuildServed(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := &Recipe{
		Name: "micro",
		Server: ServerSpec{
			Inflight:   8,
			DrainGrace: Dur(100 * time.Millisecond),
		},
		Load: LoadSpec{
			Workers:  4,
			Duration: Dur(4 * time.Second),
			Programs: "echo=1,csvpipe=1",
			SizeMin:  1024,
			SizeMax:  8192,
			Retries:  1,
			Seed:     3,
		},
		Events: []Event{{At: Dur(1500 * time.Millisecond), Action: "kill"}},
		SLO: SLO{
			ErrorBudget:    0.9,
			Allow:          []string{Class429, Class503, ClassNet, ClassTimeout, ClassTruncated},
			MinRequests:    10,
			GoroutineSlack: 64,
			HeapFactor:     20,
			HeapFloorMB:    128,
		},
		Settle: Dur(500 * time.Millisecond),
	}
	var out strings.Builder
	res, err := RunSoak(t.Context(), rec, bin, &out)
	if err != nil {
		t.Fatalf("RunSoak: %v\n%s", err, out.String())
	}
	if !res.Passed() {
		t.Fatalf("violations: %v\n%s", res.Violations, out.String())
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (the kill event)", res.Restarts)
	}
	if res.Load.Requests < 10 || res.Before.Goroutines == 0 || res.After.Goroutines == 0 {
		t.Fatalf("result incomplete: %+v", res)
	}
	if len(res.EventLog) == 0 || !strings.Contains(strings.Join(res.EventLog, "\n"), "kill") {
		t.Fatalf("event log missing the kill: %v", res.EventLog)
	}
}
