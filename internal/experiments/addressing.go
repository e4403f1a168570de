package experiments

import (
	"udp/internal/effclip"
	"udp/internal/energy"
	"udp/internal/kernels/histogram"
	"udp/internal/machine"
	"udp/internal/workload"
)

func init() {
	register("addressing-study", AddressingStudy)
}

// AddressingStudy quantifies the Figure 10/11 architectural argument with a
// shared-aggregation scenario: several lanes histogram shards of one column.
// Under restricted addressing each lane owns private bin counters (no
// conflicts, 4.3 pJ/ref, one final reduction); under global addressing all
// lanes would update one shared counter array, so same-cycle same-bank
// references serialize (modeled by merging the lanes' cycle-stamped bank
// traces) and every reference pays the 8.8 pJ crossbar energy.
func AddressingStudy(cfg Config) (*Table, error) {
	t := &Table{ID: "addressing-study", Title: "Restricted vs global addressing: shared histogram aggregation",
		Columns: []string{"mode", "lanes", "pJ/ref", "conflict stalls", "stall %", "effective MB/s", "energy/MB (uJ)"},
		Notes: []string{
			"8 lanes, 10-bin histogram over one column; lanes modeled in lockstep by merging cycle-stamped bank traces",
			"restricted: private counters + final reduce; global: one shared counter bank",
		}}
	const lanes = 8
	values := workload.FloatColumn(40000*cfg.Scale, workload.DistNormal, 41.6, 42.0, cfg.Seed+71)
	edges := histogram.UniformEdges(10, 41.6, 42.0)
	prog, err := histogram.BuildProgram(edges)
	if err != nil {
		return nil, err
	}
	im, err := effclip.Layout(prog, effclip.Options{})
	if err != nil {
		return nil, err
	}

	keys := histogram.KeyBytes(values)
	shards := machine.SplitBytes(keys, lanes)
	var traces [][]uint64
	var total machine.Stats
	var maxCycles uint64
	for _, shard := range shards {
		lane, err := machine.NewLane(im, 0)
		if err != nil {
			return nil, err
		}
		lane.EnableBankTrace()
		lane.SetInput(shard)
		if err := lane.Run(0); err != nil {
			lane.Close()
			return nil, err
		}
		traces = append(traces, append([]uint64(nil), lane.BankTrace()...))
		total.Add(lane.Stats())
		if lane.Stats().Cycles > maxCycles {
			maxCycles = lane.Stats().Cycles
		}
		lane.Close()
	}

	// Global mode: all counter updates land in one shared bank; count
	// same-cycle collisions across lanes.
	collisions := uint64(0)
	perCycle := map[uint64]int{}
	for _, tr := range traces {
		for _, ev := range tr {
			perCycle[ev]++ // identical (cycle,bank) across lanes collide
		}
	}
	for _, k := range perCycle {
		if k > 1 {
			collisions += uint64(k - 1)
		}
	}
	bytesTotal := len(keys)

	restrictedRate := machine.RateMBps(bytesTotal, maxCycles)
	restrictedEnergy := energy.LaneEnergyJ(total, energy.AddrRestricted) * 1e6 / (float64(bytesTotal) / 1e6)
	t.AddRow("restricted", d(lanes), f1(energy.LocalRefPJ), "0", "0.0",
		f0(restrictedRate), f2(restrictedEnergy))

	globalCycles := maxCycles + collisions
	globalRate := machine.RateMBps(bytesTotal, globalCycles)
	globalStats := total
	globalStats.Cycles += collisions
	globalEnergy := energy.LaneEnergyJ(globalStats, energy.AddrGlobal) * 1e6 / (float64(bytesTotal) / 1e6)
	t.AddRow("global", d(lanes), f1(energy.GlobalRefPJ), d(int(collisions)),
		f1(100*float64(collisions)/float64(globalCycles)),
		f0(globalRate), f2(globalEnergy))
	return t, nil
}
