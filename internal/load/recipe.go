package load

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Dur is a time.Duration that (un)marshals as a Go duration string ("30s",
// "2m"), so recipe files stay readable.
type Dur time.Duration

func (d Dur) D() time.Duration { return time.Duration(d) }

func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Dur) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("load: duration wants a string like \"30s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("load: duration %q: %w", s, err)
	}
	*d = Dur(v)
	return nil
}

// ServerSpec is the udpserved configuration a soak recipe launches.
type ServerSpec struct {
	// Inflight maps to -max-inflight (0 = server default).
	Inflight int `json:"inflight,omitempty"`
	// Engine maps to -engine (empty = auto).
	Engine string `json:"engine,omitempty"`
	// FaultInject is the UDP_FAULT_INJECT spec injected for the whole run,
	// e.g. "seed=7,once=1,panic=0.05".
	FaultInject string `json:"fault_inject,omitempty"`
	// Retries maps to -retries: the shard retry budget that turns injected
	// once-faults back into 200s.
	Retries int `json:"retries,omitempty"`
	// DrainGrace maps to -drain-grace: the 503 window before the listener
	// closes on SIGTERM.
	DrainGrace Dur `json:"drain_grace,omitempty"`
	// SlowMs maps to -slow-ms: the flight-recorder capture threshold. Set
	// it low in chaos recipes so degrade windows land entries the harness
	// can assert on (0 = server default).
	SlowMs int `json:"slow_ms,omitempty"`
	// Flags appends raw extra udpserved flags.
	Flags []string `json:"flags,omitempty"`
}

// LoadSpec is the generator configuration inside a recipe — Config's
// file-format twin.
type LoadSpec struct {
	Workers     int     `json:"workers,omitempty"`
	RPS         float64 `json:"rps,omitempty"`
	Duration    Dur     `json:"duration"`
	Requests    int     `json:"requests,omitempty"`
	Programs    string  `json:"programs"`
	Engines     string  `json:"engines,omitempty"`
	SizeMin     int     `json:"size_min,omitempty"`
	SizeMax     int     `json:"size_max,omitempty"`
	GzipRatio   float64 `json:"gzip_ratio,omitempty"`
	Retries     int     `json:"retries,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	ReportEvery Dur     `json:"report_every,omitempty"`
	// Stages asks the server for per-stage trailers on every request and
	// turns on the report's stage-attribution table.
	Stages bool `json:"stages,omitempty"`
}

// ToConfig lowers the spec into a runnable Config.
func (ls LoadSpec) ToConfig(target string, reportTo io.Writer) (Config, error) {
	programs, err := ParseMix(ls.Programs)
	if err != nil {
		return Config{}, err
	}
	engines, err := ParseMix(ls.Engines)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Target:      target,
		Workers:     ls.Workers,
		RPS:         ls.RPS,
		Duration:    ls.Duration.D(),
		Requests:    ls.Requests,
		Programs:    programs,
		Engines:     engines,
		SizeMin:     ls.SizeMin,
		SizeMax:     ls.SizeMax,
		GzipRatio:   ls.GzipRatio,
		Retries:     ls.Retries,
		Seed:        ls.Seed,
		ReportEvery: ls.ReportEvery.D(),
		Stages:      ls.Stages,
		ReportTo:    reportTo,
	}, nil
}

// Event is one chaos action at an offset into the load phase.
type Event struct {
	// At is the offset from load start.
	At Dur `json:"at"`
	// Action is one of:
	//
	//	kill            SIGKILL the server and restart it on the same port
	//	restart         gracefully restart (SIGTERM, drain, relaunch)
	//	squeeze         restart with Inflight as the -max-inflight override
	//	degrade         restart with Engine as the -engine override
	//	memory-squeeze  restart with SoftMB as the -mem-soft-mb override
	//	                (plus a 500ms -mem-housekeep so pressure registers
	//	                within the event window)
	//	restore         restart with the recipe's original server spec
	Action string `json:"action"`
	// Inflight is the squeeze override.
	Inflight int `json:"inflight,omitempty"`
	// Engine is the degrade override.
	Engine string `json:"engine,omitempty"`
	// SoftMB is the memory-squeeze override: the soft heap watermark in
	// MiB. Set it low enough that the loaded server crosses it — the
	// harness asserts the pressure gate actually fired.
	SoftMB int `json:"soft_mb,omitempty"`
	// Comment is free-form documentation.
	Comment string `json:"comment,omitempty"`
}

var eventActions = map[string]bool{
	"kill": true, "restart": true, "squeeze": true, "degrade": true,
	"memory-squeeze": true, "restore": true,
}

// Recipe is one soak scenario: a server to launch, a load shape to drive,
// chaos events to apply mid-run, and the SLOs the run must meet.
type Recipe struct {
	Name    string     `json:"name"`
	Comment string     `json:"comment,omitempty"`
	Server  ServerSpec `json:"server"`
	Load    LoadSpec   `json:"load"`
	Events  []Event    `json:"events,omitempty"`
	SLO     SLO        `json:"slo"`
	// Settle is how long the harness waits after the load stops before
	// taking the post-run leak sample (default 2s).
	Settle Dur `json:"settle,omitempty"`
}

// Validate sanity-checks the recipe and sorts its events by offset.
func (r *Recipe) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("load: recipe needs a name")
	}
	if r.Load.Duration.D() <= 0 && r.Load.Requests <= 0 {
		return fmt.Errorf("load: recipe %s: load.duration or load.requests required", r.Name)
	}
	programs, err := ParseMix(r.Load.Programs)
	if err == nil {
		err = CheckPrograms(programs)
	}
	if err != nil {
		return err
	}
	dur := r.Load.Duration.D()
	for i, e := range r.Events {
		if !eventActions[e.Action] {
			return fmt.Errorf("load: recipe %s: event %d: unknown action %q", r.Name, i, e.Action)
		}
		if e.Action == "squeeze" && e.Inflight <= 0 {
			return fmt.Errorf("load: recipe %s: event %d: squeeze needs inflight > 0", r.Name, i)
		}
		if e.Action == "degrade" && e.Engine == "" {
			return fmt.Errorf("load: recipe %s: event %d: degrade needs an engine", r.Name, i)
		}
		if e.Action == "memory-squeeze" && e.SoftMB <= 0 {
			return fmt.Errorf("load: recipe %s: event %d: memory-squeeze needs soft_mb > 0", r.Name, i)
		}
		if dur > 0 && e.At.D() >= dur {
			return fmt.Errorf("load: recipe %s: event %d at %s lands after the %s load phase",
				r.Name, i, e.At.D(), dur)
		}
	}
	sort.SliceStable(r.Events, func(i, j int) bool { return r.Events[i].At.D() < r.Events[j].At.D() })
	return nil
}

// ReadRecipe loads and validates a recipe file.
func ReadRecipe(path string) (*Recipe, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Recipe
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("load: recipe %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
