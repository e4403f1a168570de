// Engine selection: the lane has three execution tiers sharing one
// bit-identical semantics — the memory-word interpreter (the reference
// oracle), the predecoded cache, and the compiled tier (internal/compile).
// Engine names the tier a caller asks for; the lane resolves it against
// what the image and run support and reports what actually executed.
// Multi-active (NFA) images have one runner, the frontier walk over lane
// memory: they run on the memory interpreter, and report EngineInterp,
// whichever tier was asked for.
package machine

import (
	"fmt"
	"strings"

	"udp/internal/compile"
)

// Engine selects a lane execution tier.
type Engine uint8

const (
	// EngineAuto picks the fastest eligible tier: compiled when the image
	// lowers (and no profiler is attached), else decoded, else the memory
	// interpreter. This is the default.
	EngineAuto Engine = iota
	// EngineInterp forces the memory-word interpreter — the reference
	// semantics the other tiers must match bit for bit (oracle runs).
	EngineInterp
	// EngineDecoded forces the predecoded-cache interpreter.
	EngineDecoded
	// EngineCompiled asks for the compiled tier; an ineligible image
	// degrades to decoded, a multi-active one to the interpreter
	// (EngineInUse reports what ran).
	EngineCompiled
)

var engineNames = [...]string{"auto", "interp", "decoded", "compiled"}

// String returns the canonical engine name ("auto", "interp", "decoded",
// "compiled").
func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ParseEngine resolves an engine name (case-insensitive; "" and "auto" mean
// EngineAuto, "interp", "interpreter" and "memory" mean EngineInterp).
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return EngineAuto, nil
	case "interp", "interpreter", "memory":
		return EngineInterp, nil
	case "decoded":
		return EngineDecoded, nil
	case "compiled":
		return EngineCompiled, nil
	}
	return EngineAuto, fmt.Errorf("machine: unknown engine %q (want auto, interp, decoded or compiled)", s)
}

// SetEngine selects the lane's execution tier. EngineAuto and
// EngineCompiled resolve compiled eligibility against the image (an
// ineligible image runs decoded); EngineInterp disables both caches. The
// selection persists across Reset; it takes effect at the next Run.
func (l *Lane) SetEngine(e Engine) {
	l.engine = e
	switch e {
	case EngineInterp:
		l.decOn = false
		l.comp = nil
	case EngineDecoded:
		l.decOn = true
		l.comp = nil
	default: // EngineAuto, EngineCompiled
		l.decOn = true
		l.comp, _ = compile.For(l.img)
	}
	l.decOK = l.decOn && l.dec != nil
}

// Engine returns the requested engine (what SetEngine was given, not what
// ran; see EngineInUse).
func (l *Lane) Engine() Engine { return l.engine }

// EngineInUse reports the tier the last Run actually executed on: the tier
// selected at Run entry, downgraded to EngineInterp when a store into the
// code window forced the rest of the run onto the memory path.
func (l *Lane) EngineInUse() Engine {
	if !l.decOK {
		return EngineInterp
	}
	return l.ranEngine
}

// selectEngine resolves the tier for a single-active Run: compiled needs an
// eligible image and no automaton profiler (it hooks every dispatch, which
// is exactly what the compiled tier compiles out), and any tier needs a
// live decoded cache.
func (l *Lane) selectEngine() Engine {
	if !l.decOK {
		return EngineInterp
	}
	if l.comp != nil && l.prof == nil {
		return EngineCompiled
	}
	return EngineDecoded
}
