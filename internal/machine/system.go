package machine

import (
	"bytes"
	"sync"

	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/fault"
)

// MaxLanes returns how many lanes can run an image concurrently: lane
// parallelism is limited by the per-lane memory footprint competing for the
// 64-bank local memory (paper Sections 3.2.2 and 5.2 — code size limits
// parallelism).
func MaxLanes(img *effclip.Image) int {
	lanes := core.NumBanks / img.Banks()
	if lanes > core.NumLanes {
		lanes = core.NumLanes
	}
	if lanes < 1 {
		lanes = 0
	}
	return lanes
}

// RunResult aggregates a parallel run across lanes.
type RunResult struct {
	// Lanes is the number of lanes used.
	Lanes int
	// BanksPerLane is each lane's local-memory allotment.
	BanksPerLane int
	// Cycles is the makespan: the maximum lane cycle count.
	Cycles uint64
	// Total accumulates all lanes' counters.
	Total Stats
	// InputBytes is the total bytes streamed across lanes.
	InputBytes int
	// Outputs and Matches are per-lane results, shard order.
	Outputs [][]byte
	// Matches are the per-lane accept logs.
	Matches [][]Match
}

// Rate returns the aggregate throughput in MB/s (total input bytes over the
// makespan).
func (r *RunResult) Rate() float64 { return RateMBps(r.InputBytes, r.Cycles) }

// LaneLogicJoules returns the total lane-logic energy of the run (memory
// reference energy depends on addressing mode and lives in internal/energy).
func (r *RunResult) LaneLogicJoules() float64 {
	const laneCyclePJ = 1.88 * ClockPeriodNs // 1.88 mW per lane at the ASIC clock
	return float64(r.Total.Cycles) * laneCyclePJ * 1e-12
}

// LaneSetup customizes a lane before it runs shard i (staging memory,
// presetting registers). It may be nil.
type LaneSetup func(l *Lane, shard int) error

// RunParallel runs the image over the shards, one lane per shard, and
// aggregates the results. len(shards) must not exceed MaxLanes(img).
func RunParallel(img *effclip.Image, shards [][]byte, setup LaneSetup) (*RunResult, error) {
	limit := MaxLanes(img)
	if limit == 0 {
		return nil, fault.New(fault.TrapMemOutOfWindow, img.Name, "image does not fit local memory")
	}
	if len(shards) > limit {
		return nil, fault.New(fault.TrapMemOutOfWindow, img.Name,
			"%d shards exceed the %d-lane limit", len(shards), limit)
	}
	res := &RunResult{
		Lanes:        len(shards),
		BanksPerLane: img.Banks(),
		Outputs:      make([][]byte, len(shards)),
		Matches:      make([][]Match, len(shards)),
	}
	stats := make([]Stats, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func(i int, shard []byte) {
			defer wg.Done()
			lane, err := NewLane(img, 0)
			if err != nil {
				errs[i] = err
				return
			}
			defer lane.Close()
			lane.SetInput(shard)
			if setup != nil {
				if err := setup(lane, i); err != nil {
					errs[i] = err
					return
				}
			}
			if err := lane.Run(0); err != nil {
				errs[i] = err
				return
			}
			stats[i] = lane.Stats()
			res.Outputs[i] = append([]byte(nil), lane.Output()...)
			res.Matches[i] = append([]Match(nil), lane.Matches()...)
		}(i, shard)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i, st := range stats {
		res.Total.Add(st)
		if st.Cycles > res.Cycles {
			res.Cycles = st.Cycles
		}
		res.InputBytes += len(shards[i])
	}
	return res, nil
}

// RunSingle runs one lane over input and returns it for inspection; the
// caller may Close it once done with its output and memory.
func RunSingle(img *effclip.Image, input []byte) (*Lane, error) {
	lane, err := NewLane(img, 0)
	if err != nil {
		return nil, err
	}
	lane.SetInput(input)
	if err := lane.Run(0); err != nil {
		lane.Close()
		return nil, err
	}
	return lane, nil
}

// SplitBytes partitions data into n nearly equal shards.
func SplitBytes(data []byte, n int) [][]byte {
	if n < 1 {
		n = 1
	}
	shards := make([][]byte, 0, n)
	per := (len(data) + n - 1) / n
	for off := 0; off < len(data); off += per {
		end := off + per
		if end > len(data) {
			end = len(data)
		}
		shards = append(shards, data[off:end])
	}
	if len(shards) == 0 {
		shards = append(shards, nil)
	}
	return shards
}

// SplitRecords partitions data into at most n shards whose boundaries fall
// just after the separator byte (e.g. '\n' for CSV), so no record straddles
// two lanes.
func SplitRecords(data []byte, n int, sep byte) [][]byte {
	if n < 1 {
		n = 1
	}
	var shards [][]byte
	per := (len(data) + n - 1) / n
	start := 0
	for start < len(data) && len(shards) < n-1 {
		end := start + per
		if end >= len(data) {
			break
		}
		adv := bytes.IndexByte(data[end:], sep)
		if adv < 0 {
			break
		}
		end += adv + 1
		shards = append(shards, data[start:end])
		start = end
	}
	if start < len(data) || len(shards) == 0 {
		shards = append(shards, data[start:])
	}
	return shards
}
