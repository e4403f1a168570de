// It lives in machine_test because internal/sched, the executor that runs
// an image over many lanes, imports machine.
package machine_test

import (
	"bytes"
	"context"
	"testing"

	"udp/internal/core"
	"udp/internal/machine"
	"udp/internal/sched"
)

// TestRunParallel runs the identity program over eight shards through the
// executor and checks aggregation. With no more shards than simulated
// lanes, the list schedule puts each shard on a lane of its own, so the
// makespan is the slowest shard's cycles.
func TestRunParallel(t *testing.T) {
	p := core.NewProgram("copy", 8)
	s := p.AddState("s", core.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	im := layout(t, p)
	data := bytes.Repeat([]byte("0123456789"), 100)
	shards := machine.SplitBytes(data, 8)
	if len(shards) > machine.MaxLanes(im) {
		t.Fatalf("%d shards exceed the %d lanes", len(shards), machine.MaxLanes(im))
	}
	res, err := sched.Run(context.Background(), im, sched.Slice(shards), sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.InputBytes != len(data) {
		t.Fatalf("input bytes %d", res.InputBytes)
	}
	if !bytes.Equal(res.Output(), data) {
		t.Fatal("parallel outputs do not reassemble input")
	}
	if res.Rate() <= 0 {
		t.Fatal("rate must be positive")
	}
	var slowest uint64
	for _, sh := range shards {
		lane, err := machine.RunSingle(im, sh)
		if err != nil {
			t.Fatal(err)
		}
		slowest = max(slowest, lane.Stats().Cycles)
		lane.Close()
	}
	if res.Cycles != slowest {
		t.Fatalf("makespan %d cycles, want the slowest shard's %d", res.Cycles, slowest)
	}
}
