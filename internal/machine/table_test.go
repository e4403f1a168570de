package machine_test

import (
	"bytes"
	"fmt"
	"testing"

	"udp/internal/builtins"
	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/kernels/histogram"
	"udp/internal/machine"
	"udp/internal/workload"
)

// The compiled tier consumes the bytes a byte-step table covers with one
// lookup each (see compiled.go); these cases pin the tables of the builtins
// and put the limits of a table segment — the cycle budget, the table's
// size cap, an output buffer that must grow — where the segment ends.

// TestTableCoverage pins each served builtin's table under the size cap,
// and runs a program whose table would exceed it untabled on the compiled
// tier, bit-identical with the others.
func TestTableCoverage(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rows, bytes int
	}{
		{"echo", 1, 2048},
		{"csvparse", 4, 8192},
		{"csvpipe", 4, 8192},
		{"jsonparse", 5, 10240},
		{"xmlparse", 4, 8192},
		{"histogram16", 232, 504832},
	} {
		cp, err := compile.For(layout(t, builtins.Program(tc.name)))
		if err != nil {
			t.Fatal(err)
		}
		tab := cp.Table
		if tab == nil {
			t.Fatalf("%s: no table", tc.name)
		}
		if len(tab.Rows) != tc.rows || tab.Size() != tc.bytes || tab.Size() > compile.MaxTableBytes {
			t.Errorf("%s: table rows=%d bytes=%d, want rows=%d bytes=%d under the %d-byte cap",
				tc.name, len(tab.Rows), tab.Size(), tc.rows, tc.bytes, compile.MaxTableBytes)
		}
	}

	// A ring of 600 common-mode echo states, one byte each: 600 rows of
	// 2 KiB.
	p := core.NewProgram("ring600", 8)
	states := make([]*core.State, 600)
	for i := range states {
		states[i] = p.AddState(fmt.Sprintf("s%d", i), core.ModeCommon)
	}
	for i, s := range states {
		s.Common(states[(i+1)%len(states)], core.AOut8(core.RSym))
	}
	img := layout(t, p)
	cp, err := compile.For(img)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Table != nil {
		t.Fatalf("ring600 tabled with %d bytes over the %d-byte cap", cp.Table.Size(), compile.MaxTableBytes)
	}
	_, _, comp := diffRun(t, img, workload.Text(workload.TextEnglish, 4<<10, 4), nil)
	if comp.engine != machine.EngineCompiled {
		t.Fatalf("untabled image ran on %v, want compiled", comp.engine)
	}
}

// TestDifferentialTableBudgets places the cycle budget at each of the last
// 8 dispatches of a table segment, and just past it, at 8-bit symbols (the
// segment ends on an exit byte, a slow chain), at 4-bit symbols (it ends
// with the input), and over a short segment that starts on an ordinary row
// and enters a copy row. A budget inside the segment cuts it short, so the
// trap's trace tail comes from the ring the segment rebuilt.
func TestDifferentialTableBudgets(t *testing.T) {
	slow := core.NewProgram("slow-exit", 8)
	s := slow.AddState("s", core.ModeStream)
	s.On('#', s, core.ASt8(core.R2, core.RSym, 0))
	s.Majority(s, core.AOut8(core.RSym))
	hist := builtins.Program("histogram16")
	for _, tc := range []struct {
		name          string
		prog          *core.Program
		segment, tail []byte
	}{
		{"w8", slow, workload.Text(workload.TextEnglish, 300, 8), []byte("#after")},
		{"w4", hist, histogram.KeyBytes(workload.FloatColumn(40, workload.DistUniform, 0, 1, 8)), nil},
		{"enter-copy", enterCopyProgram(), []byte("abcdef"), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := layout(t, tc.prog)
			cp, err := compile.For(img)
			if err != nil || cp.Table == nil {
				t.Fatalf("no table (%v)", err)
			}
			// The cycle the segment ends on, from a run over it alone.
			end, _, _ := diffRun(t, img, tc.segment, nil)
			if end.err != nil {
				t.Fatal(end.err)
			}
			input := append(append([]byte(nil), tc.segment...), tc.tail...)
			last := end.stats.Cycles
			for budget := max(1, last-min(last, 8*cp.Table.MaxCost)); budget <= last+1; budget++ {
				ref, _, _ := diffRunBanks(t, img, 0, input, nil, budget)
				if budget < last && ref.err == nil {
					t.Fatalf("budget %d inside the segment did not trap", budget)
				}
			}
		})
	}
}

// TestDifferentialTableOutputGrowth: a table entry that emits two bytes per
// input byte outgrows the output buffer a lane sizes to its input, so
// segments are cut short where the spare capacity ends and the ordinary
// dispatch grows the buffer.
func TestDifferentialTableOutputGrowth(t *testing.T) {
	p := core.NewProgram("double", 8)
	s := p.AddState("s", core.ModeStream)
	s.Majority(s, core.AMovi(core.R1, '.'), core.AOut8(core.RSym), core.AOut8(core.R1))
	input := bytes.Repeat([]byte("abcdefgh"), 1000)
	ref, _, comp := diffRun(t, layout(t, p), input, nil)
	if len(ref.out) != 2*len(input) || comp.engine != machine.EngineCompiled {
		t.Fatalf("output %d bytes on %v, want %d on compiled", len(ref.out), comp.engine, 2*len(input))
	}
}

// TestDifferentialTableCopyRows: a row is a copy row only when every byte
// stays, emits itself and costs the same; echo with a direct 'a' slot (no
// fallback probe) emits the same bytes at two costs and is stepped byte by
// byte.
func TestDifferentialTableCopyRows(t *testing.T) {
	direct := core.NewProgram("echo-direct-a", 8)
	s := direct.AddState("s", core.ModeStream)
	s.On('a', s, core.AOut8(core.RSym))
	s.Majority(s, core.AOut8(core.RSym))
	input := workload.Text(workload.TextEnglish, 2<<10, 5)
	for _, tc := range []struct {
		prog *core.Program
		copy bool
	}{{echoProgram(), true}, {direct, false}} {
		img := layout(t, tc.prog)
		cp, err := compile.For(img)
		if err != nil {
			t.Fatal(err)
		}
		if got := cp.Table.Rows[0].Copy; got != tc.copy {
			t.Fatalf("%s: copy row %v, want %v", tc.prog.Name, got, tc.copy)
		}
		diffRun(t, img, input, nil)
	}
}
