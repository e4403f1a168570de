package machine

import (
	"bytes"

	"udp/internal/core"
	"udp/internal/effclip"
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

// LaneSetup customizes a lane before it runs shard i (staging memory,
// presetting registers). It may be nil.
type LaneSetup func(l *Lane, shard int) error

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
