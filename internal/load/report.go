package load

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"udp/internal/client"
)

// Error classes the loader buckets request outcomes into. "2xx" is success;
// everything else is a failure class a recipe's SLO either allows (counted
// against the error budget) or forbids outright.
const (
	Class2xx       = "2xx"
	Class429       = "429"
	Class503       = "503"
	Class4xx       = "4xx"
	Class5xx       = "5xx"
	ClassNet       = "net"
	ClassTimeout   = "timeout"
	ClassCanceled  = "canceled"
	ClassTruncated = "truncated"
)

// Classify buckets a finished request into (status, class). err is the
// Transform error (nil on success); a non-nil readErr marks a 200 whose body
// died mid-stream (the server's mid-transform abort surface).
func Classify(err, readErr error) (status int, class string) {
	if err == nil {
		if readErr != nil {
			return http.StatusOK, ClassTruncated
		}
		return http.StatusOK, Class2xx
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch {
		case ae.StatusCode == http.StatusTooManyRequests:
			return ae.StatusCode, Class429
		case ae.StatusCode == http.StatusServiceUnavailable:
			return ae.StatusCode, Class503
		case ae.StatusCode >= 500:
			return ae.StatusCode, Class5xx
		default:
			return ae.StatusCode, Class4xx
		}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return 0, ClassTimeout
	case errors.Is(err, context.Canceled):
		return 0, ClassCanceled
	default:
		// Transport-level: refused/reset connections during a worker kill,
		// DNS, or a connection the dying server closed under us.
		return 0, ClassNet
	}
}

// Report is the loader's result, serialized by cmd/udploader -json.
type Report struct {
	// Target is the base URL the load was driven against.
	Target string `json:"target"`
	// Workers is the closed-loop concurrency.
	Workers int `json:"workers"`
	// TargetRPS is the open-loop arrival rate (0 = closed loop).
	TargetRPS float64 `json:"target_rps,omitempty"`
	// DurationSeconds is the wall clock from first to last request.
	DurationSeconds float64 `json:"duration_seconds"`
	// Requests counts finished requests; Errors the non-2xx subset.
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// AchievedRPS is Requests / DurationSeconds.
	AchievedRPS float64 `json:"achieved_rps"`
	// ThroughputMBps is successful-request input MB/s (1e6 bytes,
	// uncompressed body size).
	ThroughputMBps float64 `json:"throughput_mbps"`
	// BytesIn/BytesOut total the uncompressed request and response bytes of
	// successful requests.
	BytesIn  int64 `json:"bytes_in"`
	BytesOut int64 `json:"bytes_out"`
	// P50/P90/P99/Max are successful-request latency percentiles in
	// milliseconds (wall time incl. client retry backoff).
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// Samples is the latency sample count behind the percentiles.
	Samples int `json:"samples"`
	// Classes is the error taxonomy: finished requests per class ("2xx",
	// "429", "503", "net", ...).
	Classes map[string]int `json:"classes"`
	// Statuses counts finished requests per exact HTTP status ("200",
	// "429", ...; "0" for transport failures).
	Statuses map[string]int `json:"statuses"`
	// Programs counts finished requests per program.
	Programs map[string]int `json:"programs"`
	// Attempts totals HTTP attempts (retries included); Backoffs counts
	// requests that slept at least once; BackoffSeconds totals the sleep —
	// the Retry-After hints the loader honored.
	Attempts       int     `json:"attempts"`
	Backoffs       int     `json:"backoffs"`
	BackoffSeconds float64 `json:"backoff_seconds"`
	// Stages is the per-stage latency attribution table, present when the
	// run opted into stage trailers (Config.Stages) and the server sent
	// them. Stages the run never passed through are omitted.
	Stages []StageStat `json:"stages,omitempty"`
	// Slowest is the top-K slowest finished requests with the trace IDs to
	// pull from the server's /debug/slow and /debug/traces, slowest first.
	Slowest []SlowRequest `json:"slowest,omitempty"`
	// GoVersion and Timestamp pin the environment.
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`
}

// StageStat is one row of the per-stage attribution table: latency
// percentiles over the successful requests that passed through the stage,
// and the stage's share of the p99 cohort's total stage time.
type StageStat struct {
	// Stage is the canonical stage name (obs.Stage.String()).
	Stage string `json:"stage"`
	// Samples is how many requests passed through the stage (non-zero time).
	Samples int `json:"samples"`
	// P50Ms/P99Ms are the stage-time percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// P99Share is the stage's fraction of all stage time spent by the p99
	// latency cohort — "p99 is 71% sink-wait" reads P99Share 0.71. Stage
	// time is resource time (lane_run sums over shards), so shares compare
	// where the pipeline's effort went, not wall-clock fractions.
	P99Share float64 `json:"p99_share"`
}

// SlowRequest is one of the run's slowest requests, with the identifiers
// that find it on the server side.
type SlowRequest struct {
	// TraceID matches the server's X-Udp-Trace-Id — the key into
	// /debug/slow and /debug/traces.
	TraceID string `json:"trace_id"`
	// Program is the program the request ran; Engine the requested tier
	// ("" = server default).
	Program string `json:"program"`
	Engine  string `json:"engine,omitempty"`
	// Status/Class are the request's outcome.
	Status int    `json:"status"`
	Class  string `json:"class,omitempty"`
	// Ms is the request wall time (client retry backoff included).
	Ms float64 `json:"ms"`
}

// AttributionTable renders Report.Stages as the greppable per-stage table
// ("" when the run collected no stage samples):
//
//	stage attribution (p99 cohort):
//	  stage lane_run: p50 4.2 ms p99 38.1 ms p99-share 71%
func (r *Report) AttributionTable() string {
	if len(r.Stages) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("stage attribution (p99 cohort):\n")
	for _, s := range r.Stages {
		fmt.Fprintf(&sb, "  stage %s: p50 %.1f ms p99 %.1f ms p99-share %.0f%% (%d samples)\n",
			s.Stage, s.P50Ms, s.P99Ms, s.P99Share*100, s.Samples)
	}
	return sb.String()
}

// SlowestTable renders Report.Slowest, slowest first ("" when empty):
//
//	slowest requests:
//	  812.4 ms csvpipe engine=interp status=200 trace=4bf9...
func (r *Report) SlowestTable() string {
	if len(r.Slowest) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("slowest requests:\n")
	for _, s := range r.Slowest {
		eng := s.Engine
		if eng == "" {
			eng = "default"
		}
		fmt.Fprintf(&sb, "  %8.1f ms %s engine=%s status=%d trace=%s\n",
			s.Ms, s.Program, eng, s.Status, s.TraceID)
	}
	return sb.String()
}

// Summary is the one-line human rendering of a report.
func (r *Report) Summary() string {
	return fmt.Sprintf(
		"load: %d reqs in %.1fs (%.0f rps, %.1f MB/s) p50 %.1f ms p90 %.1f ms p99 %.1f ms, %d errors %s",
		r.Requests, r.DurationSeconds, r.AchievedRPS, r.ThroughputMBps,
		r.P50Ms, r.P90Ms, r.P99Ms, r.Errors, formatClasses(r.Classes))
}

// formatClasses renders the non-2xx classes compactly: "(429:3 net:2)".
func formatClasses(classes map[string]int) string {
	keys := make([]string, 0, len(classes))
	for k, n := range classes {
		if k != Class2xx && n > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "(clean)"
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, classes[k])
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// SLO is the gate a load run (or soak recipe) must meet. The zero value
// checks nothing.
type SLO struct {
	// P99Ms bounds the successful-request p99 latency (0 = unchecked).
	P99Ms float64 `json:"p99_ms,omitempty"`
	// ErrorBudget caps the failed fraction of requests (allowed classes
	// included), e.g. 0.05 = 5%. 0 = unchecked.
	ErrorBudget float64 `json:"error_budget,omitempty"`
	// Allow lists failure classes the budget tolerates ("429", "503",
	// "net", "truncated", ...). Any failure whose class is NOT listed is a
	// hard violation — the "zero non-2xx outside injected classes"
	// invariant.
	Allow []string `json:"allow,omitempty"`
	// MinRequests guards against a vacuous pass: a run that finished fewer
	// requests violates the SLO (0 = unchecked).
	MinRequests int `json:"min_requests,omitempty"`
	// GoroutineSlack bounds the server goroutine-count growth between the
	// pre-load and post-settle /debug/pprof samples (0 = unchecked).
	GoroutineSlack int `json:"goroutine_slack,omitempty"`
	// HeapFactor bounds post-settle HeapAlloc at before*HeapFactor, floored
	// at HeapFloorMB so a tiny idle baseline doesn't make noise fatal
	// (0 = unchecked).
	HeapFactor  float64 `json:"heap_factor,omitempty"`
	HeapFloorMB float64 `json:"heap_floor_mb,omitempty"`
	// StageShareMax caps any single stage's share of the p99 cohort's stage
	// time (see StageStat.P99Share), e.g. 0.9 fails when one stage is over
	// 90% of where slow requests spend their time. Only meaningful when the
	// run collects stage trailers (Config.Stages). 0 = unchecked.
	StageShareMax float64 `json:"stage_share_max,omitempty"`
	// MinFlightEntries requires the server's /debug/slow flight recorder to
	// have captured at least this many entries over a soak run — proof the
	// tail-latency capture pipeline is live. Checked by RunSoak (the loader
	// alone cannot see the server's recorder). 0 = unchecked.
	MinFlightEntries int `json:"min_flight_entries,omitempty"`
}

// Check returns the latency/error-taxonomy violations of r against the SLO
// (empty = pass). Leak invariants are checked separately via CheckLeaks,
// since they need process samples the report doesn't carry.
func (s SLO) Check(r *Report) []string {
	var v []string
	if s.MinRequests > 0 && r.Requests < s.MinRequests {
		v = append(v, fmt.Sprintf("finished %d requests, SLO floor is %d", r.Requests, s.MinRequests))
	}
	if s.P99Ms > 0 && r.P99Ms > s.P99Ms {
		v = append(v, fmt.Sprintf("p99 %.1f ms exceeds SLO %.1f ms", r.P99Ms, s.P99Ms))
	}
	allowed := make(map[string]bool, len(s.Allow))
	for _, c := range s.Allow {
		allowed[c] = true
	}
	for _, class := range sortedKeys(r.Classes) {
		n := r.Classes[class]
		if class == Class2xx || n == 0 || allowed[class] {
			continue
		}
		v = append(v, fmt.Sprintf("%d %q failures outside the allowed classes %v", n, class, s.Allow))
	}
	if s.ErrorBudget > 0 && r.Requests > 0 {
		frac := float64(r.Errors) / float64(r.Requests)
		if frac > s.ErrorBudget {
			v = append(v, fmt.Sprintf("error fraction %.3f (%d/%d) exceeds budget %.3f",
				frac, r.Errors, r.Requests, s.ErrorBudget))
		}
	}
	if s.StageShareMax > 0 {
		for _, st := range r.Stages {
			if st.P99Share > s.StageShareMax {
				v = append(v, fmt.Sprintf("stage %s is %.0f%% of p99-cohort stage time, above the %.0f%% cap",
					st.Stage, st.P99Share*100, s.StageShareMax*100))
			}
		}
	}
	return v
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ProcSample is one leak-invariant snapshot of a server process, read from
// its /debug/pprof endpoints plus the memory-health gauges on /metrics
// (zero when the target doesn't serve them).
type ProcSample struct {
	Goroutines int    `json:"goroutines"`
	HeapAlloc  uint64 `json:"heap_alloc_bytes"`
	// HeapInuse is go_heap_inuse_bytes: the pressure-watermark input.
	HeapInuse uint64 `json:"heap_inuse_bytes,omitempty"`
	// GCPauseP99Ms is the p99 stop-the-world GC pause since process start.
	GCPauseP99Ms float64 `json:"gc_pause_p99_ms,omitempty"`
	// PressureLevel is the slab manager's current pressure level
	// (0=ok 1=soft 2=critical); PressureTransitions counts upward level
	// crossings and PressureSheds the 429s the pressure gate issued —
	// what the memory-squeeze soak event asserts on.
	PressureLevel       int    `json:"mem_pressure_level,omitempty"`
	PressureTransitions uint64 `json:"mem_pressure_transitions,omitempty"`
	PressureSheds       uint64 `json:"mem_pressure_sheds,omitempty"`
}

// CheckLeaks compares before/after process samples against the SLO's leak
// invariants: goroutine growth within GoroutineSlack and HeapAlloc within
// max(before*HeapFactor, HeapFloorMB).
func (s SLO) CheckLeaks(before, after ProcSample) []string {
	var v []string
	if s.GoroutineSlack > 0 && after.Goroutines > before.Goroutines+s.GoroutineSlack {
		v = append(v, fmt.Sprintf("goroutines grew %d -> %d (slack %d): leak",
			before.Goroutines, after.Goroutines, s.GoroutineSlack))
	}
	if s.HeapFactor > 0 {
		limit := float64(before.HeapAlloc) * s.HeapFactor
		floor := s.HeapFloorMB * 1e6
		if floor == 0 {
			floor = 64e6
		}
		if limit < floor {
			limit = floor
		}
		if float64(after.HeapAlloc) > limit {
			v = append(v, fmt.Sprintf("heap grew %d -> %d bytes (limit %.0f): leak",
				before.HeapAlloc, after.HeapAlloc, limit))
		}
	}
	return v
}

// percentile reads the p-quantile (0..1) in milliseconds from sorted
// samples.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// newReport stamps the environment fields.
func newReport(target string) *Report {
	return &Report{
		Target:    target,
		Classes:   make(map[string]int),
		Statuses:  make(map[string]int),
		Programs:  make(map[string]int),
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
}

// statusLabel renders an HTTP status for the Statuses map.
func statusLabel(status int) string { return strconv.Itoa(status) }
