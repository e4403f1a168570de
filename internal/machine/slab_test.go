// Lane memory comes from the slab manager: these tests pin what a lane may
// assume about a slab (nothing) and what it owes the manager (every slab
// back, once). The three-tier behaviour on recycled slabs is part of the
// differential harness itself (diffRunBanks in diff_test.go).
package machine_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/fault"
	"udp/internal/kernels/histogram"
	"udp/internal/machine"
	"udp/internal/memsys"
	"udp/internal/workload"
)

// parentWindow lays an image into a freshly zeroed window the way NewLane
// did before lanes drew slabs: words, then DataInit.
func parentWindow(img *effclip.Image, banks int) []byte {
	if banks == 0 {
		banks = img.Banks()
	}
	w := make([]byte, banks*core.BankBytes)
	for i, word := range img.Words {
		binary.LittleEndian.PutUint32(w[i*core.WordBytes:], word)
	}
	for off, b := range img.DataInit {
		copy(w[img.DataBase+off:], b)
	}
	return w
}

// tableProgram echoes its input and carries initialised scratch data, so
// its load-time window is code, a gap, a table, and zeroes.
func tableProgram() *core.Program {
	p := echoProgram()
	p.DataBytes = 256
	p.DataInit[16] = []byte("load-time table")
	p.DataInit[200] = bytes.Repeat([]byte{0x5A}, 56)
	return p
}

// TestRecycledSlabWindow: whatever a slab held, and however many banks the
// caller asks for, the window a lane loads — and the one Reset restores
// after stores anywhere in it — is byte for byte the one a zeroed
// allocation would have produced.
func TestRecycledSlabWindow(t *testing.T) {
	img := layout(t, tableProgram())
	recycled := memsys.New(memsys.Config{})
	defer recycled.Close()
	defer machine.SwapSlabs(recycled)()

	for _, banks := range []int{0, 1, 2, 5, core.NumBanks} {
		refillPoison(recycled)
		lane, err := machine.NewLane(img, banks)
		if err != nil {
			t.Fatal(err)
		}
		want := parentWindow(img, banks)
		if !bytes.Equal(lane.Mem(), want) {
			t.Fatalf("banks=%d: loaded window differs from a zeroed build", banks)
		}
		// Dirty the code, the table, the scratch tail and the very last
		// byte, then ask for the load-time state back.
		for _, off := range []int{0, img.DataBase + 16, len(img.LoadWindow()) - 1, len(want) - 3} {
			if err := lane.WriteMem(off, []byte{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		}
		lane.Reset()
		if !bytes.Equal(lane.Mem(), want) {
			t.Fatalf("banks=%d: Reset left the window different from a zeroed build", banks)
		}
	}
}

// TestRecycledSlabNonDefaultBanks runs the scratch-storing histogram on a
// window wider than its image needs, with staged bytes beyond the image's
// own footprint, through the whole harness.
func TestRecycledSlabNonDefaultBanks(t *testing.T) {
	prog, err := histogram.BuildProgram(histogram.UniformEdges(16, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	img := layout(t, prog)
	keys := histogram.KeyBytes(workload.FloatColumn(512, workload.DistUniform, 0, 1, 4))
	stage := func(l *machine.Lane) {
		if err := l.WriteMem(3*core.BankBytes-8, []byte("far away")); err != nil {
			t.Fatal(err)
		}
	}
	ref, _, _ := diffRunBanks(t, img, 3, keys, stage, 0)
	if len(ref.mem) != 3*core.BankBytes {
		t.Fatalf("window is %d bytes, want three banks", len(ref.mem))
	}
	if ref.stats.MemRefs == 0 {
		t.Fatal("histogram never touched its scratch counters")
	}
}

// TestLanesShareOneLoadWindow: the load-time window is built once per image
// and only ever read — a lane scribbling over its own banks, or rewriting
// its own code, changes neither the shared copy nor a sibling lane.
func TestLanesShareOneLoadWindow(t *testing.T) {
	img, addr, repl := selfModImage(t, 'B')
	shared := img.LoadWindow()
	before := append([]byte(nil), shared...)

	a, err := machine.NewLane(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.NewLane(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again := img.LoadWindow(); &again[0] != &shared[0] {
		t.Fatal("a second lane rebuilt the image's load-time window")
	}
	if &a.Mem()[0] == &shared[0] || &a.Mem()[0] == &b.Mem()[0] {
		t.Fatal("a lane's bank window aliases the shared copy or its sibling")
	}

	if err := a.WriteMem(0, bytes.Repeat([]byte{0xFF}, len(a.Mem()))); err != nil {
		t.Fatal(err)
	}
	b.SetReg(core.R1, addr)
	b.SetReg(core.R2, repl)
	b.SetInput([]byte("xwx"))
	if err := b.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := string(b.Output()); got != "AB" {
		t.Fatalf("sibling lane output %q, want \"AB\"", got)
	}
	if !bytes.Equal(img.LoadWindow(), before) {
		t.Fatal("a lane's stores reached the shared load-time window")
	}
}

// TestLaneCloseReturnsEachSlabOnce: Close hands back the bank window and
// the output buffer, a second Close hands back nothing.
func TestLaneCloseReturnsEachSlabOnce(t *testing.T) {
	img := layout(t, echoProgram())
	m := memsys.New(memsys.Config{})
	defer m.Close()
	defer machine.SwapSlabs(m)()

	lane, err := machine.NewLane(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	lane.SetInput(bytes.Repeat([]byte("x"), 5000)) // an 8 KiB output slab
	lane.SetInput(bytes.Repeat([]byte("x"), 9000)) // outgrown: swapped for a 16 KiB one
	if err := lane.Run(0); err != nil {
		t.Fatal(err)
	}
	balance := func() (gets, puts uint64) {
		for _, c := range m.Stats().Classes {
			gets += c.Gets
			puts += c.Puts
		}
		return gets, puts
	}
	if gets, puts := balance(); gets != 3 || puts != 1 {
		t.Fatalf("before Close: %d gets, %d puts; want 3 and 1", gets, puts)
	}
	lane.Close()
	lane.Close()
	if gets, puts := balance(); gets != 3 || puts != 3 {
		t.Fatalf("after two Closes: %d gets, %d puts; want 3 and 3", gets, puts)
	}
}

// TestNewLaneRejectsDataInitBeforeWindow: a posted program can place a data
// payload at a negative offset; that is a load error, not an index panic in
// whichever goroutine builds the first lane.
func TestNewLaneRejectsDataInitBeforeWindow(t *testing.T) {
	p := echoProgram()
	p.DataBytes = 64
	p.DataInit[-(1 << 20)] = []byte{1}
	img := layout(t, p)
	_, err := machine.NewLane(img, 0)
	if tr := fault.AsTrap(err); tr == nil || tr.Kind != fault.TrapMemOutOfWindow {
		t.Fatalf("NewLane = %v, want a mem-out-of-window trap", err)
	}
}
