package sched_test

import (
	"bytes"
	"context"
	"testing"

	"udp/internal/builtins"
	"udp/internal/effclip"
	"udp/internal/etl"
	"udp/internal/sched"
)

// TestMakespanDeterministic: the simulated makespan of one multi-shard body
// is a function of the body, the chunking and the lane count alone. Run it
// with go test -cpu 1,2,8: how many host workers execute the shards, and
// which of them dequeues which shard, must not show in Result.Cycles.
func TestMakespanDeterministic(t *testing.T) {
	im, err := effclip.Layout(builtins.Program("csvpipe"), effclip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	body := etl.LineitemCSV(20000, 20170101)
	body = body[:bytes.LastIndexByte(body[:2<<20], '\n')+1]

	const lanes, runs = 8, 50
	var first *sched.Result
	for run := 0; run < runs; run++ {
		var largest uint64
		res, err := sched.Run(context.Background(), im,
			sched.Records(bytes.NewReader(body), 16<<10, '\n'), sched.Config{
				Lanes: lanes,
				Hook:  func(e sched.Event) { largest = max(largest, e.Cycles) },
			})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			// A list schedule ends within one shard of a perfect split.
			if perfect := res.Total.Cycles / lanes; res.Cycles < perfect || res.Cycles > perfect+largest {
				t.Fatalf("makespan %d outside [%d, %d] for Σ%d over %d lanes",
					res.Cycles, perfect, perfect+largest, res.Total.Cycles, lanes)
			}
			if res.Shards < 4*lanes {
				t.Fatalf("%d shards: want far more shards than lanes", res.Shards)
			}
			continue
		}
		if res.Cycles != first.Cycles || res.Total.Cycles != first.Total.Cycles {
			t.Fatalf("run %d: makespan %d (Σ%d), run 0 gave %d (Σ%d)",
				run, res.Cycles, res.Total.Cycles, first.Cycles, first.Total.Cycles)
		}
	}
}
