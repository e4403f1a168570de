package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"syscall"
	"time"
)

// hostProbe measures how fast the host is while a run lasts. On the shared
// sandbox the host changes speed by a quarter for minutes at a time, and what
// changes is memory latency and wake-up latency, not the clock: a register
// loop and a block copy read the same in both states, a pointer chase and a
// loopback round trip do not, and every workload here follows those two. So
// the probe times exactly those two, from the benchmark's own frozen code,
// in a short slice before every round, and the two wall-clock end-to-end
// figures are reported at the nominal probe speed (see hostSpeed). Over four
// sets of ten runs with ten seeds the raw figures spread up to 36 %
// (throughput) and 32 % (median latency), the normalised ones up to 12 % and
// 17 %. README.md has the measurements.
type hostProbe struct {
	// tables holds one cyclic permutation of little-endian uint32 per
	// goroutine. They are mapped, not allocated: 16 MB on the Go heap would
	// be ballast that halves the collector's work on serve_small, whose own
	// heap is a few megabytes.
	tables [][]byte
	pos    []uint32
	ln     net.Listener
	conns  []net.Conn
	echo   sync.WaitGroup

	hopNS, pingUS []float64 // one value per sample
}

const (
	// probeTableLen is 2M entries, 8 MB: well beyond the last-level cache
	// share of a sandbox core, so a hop is a memory access.
	probeTableLen = 2 << 20
	probeSlice    = 25 * time.Millisecond
	// The probe's median readings over 120 runs on the two-core sandbox; they
	// only fix the scale, so that a normalised figure reads like a raw one.
	nominalHopNS  = 118.0
	nominalPingUS = 20.7
)

// newHostProbe builds the tables and the loopback echo pairs for n
// goroutines.
func newHostProbe(n int) (*hostProbe, error) {
	h := &hostProbe{pos: make([]uint32, n)}
	for g := 0; g < n; g++ {
		t, err := syscall.Mmap(-1, 0, 4*probeTableLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("host probe: map table: %w", err)
		}
		fillCyclicPermutation(t, uint64(g)+1)
		h.tables = append(h.tables, t)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, fmt.Errorf("host probe: %w", err)
	}
	h.ln = ln
	for g := 0; g < n; g++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			h.close()
			return nil, fmt.Errorf("host probe: %w", err)
		}
		h.conns = append(h.conns, c)
		peer, err := ln.Accept()
		if err != nil {
			h.close()
			return nil, fmt.Errorf("host probe: %w", err)
		}
		h.echo.Add(1)
		go func() {
			defer h.echo.Done()
			defer peer.Close()
			b := make([]byte, 1)
			for {
				if _, err := peer.Read(b); err != nil {
					return // the probe closed its end
				}
				if _, err := peer.Write(b); err != nil {
					return
				}
			}
		}()
	}
	return h, nil
}

// fillCyclicPermutation fills t with little-endian uint32 entries next[]
// such that following next from any entry visits every entry (Sattolo's
// algorithm over a xorshift generator).
func fillCyclicPermutation(t []byte, seed uint64) {
	le := binary.LittleEndian
	n := len(t) / 4
	for i := 0; i < n; i++ {
		le.PutUint32(t[4*i:], uint32(i))
	}
	x := seed * 0x9E3779B97F4A7C15
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		a, b := le.Uint32(t[4*i:]), le.Uint32(t[4*j:])
		le.PutUint32(t[4*i:], b)
		le.PutUint32(t[4*j:], a)
	}
}

// sample runs one slice of each half on every goroutine at once, as the
// workloads keep every core busy at once.
func (h *hostProbe) sample() error {
	const hops = 2000
	hop, err := h.timed(func(g int) error {
		p, t := h.pos[g], h.tables[g]
		for i := 0; i < hops; i++ {
			p = binary.LittleEndian.Uint32(t[4*p:])
		}
		h.pos[g] = p
		return nil
	})
	if err != nil {
		return err
	}
	ping, err := h.timed(func(g int) error {
		b := []byte{1}
		if _, err := h.conns[g].Write(b); err != nil {
			return err
		}
		_, err := h.conns[g].Read(b)
		return err
	})
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	h.hopNS = append(h.hopNS, hop*1e9/hops)
	h.pingUS = append(h.pingUS, ping*1e6)
	return nil
}

// timed calls step on every goroutine until probeSlice has passed and
// returns the seconds one call took, averaged over all of them.
func (h *hostProbe) timed(step func(g int) error) (float64, error) {
	n := len(h.tables)
	calls := make([]int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Since(start) < probeSlice && errs[g] == nil {
				errs[g] = step(g)
				calls[g]++
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := 0
	for g := range calls {
		if errs[g] != nil {
			return 0, errs[g]
		}
		total += calls[g]
	}
	return elapsed * float64(n) / float64(total), nil
}

// hostSpeed is the host's speed over the samples taken, 1 at the nominal
// readings: the geometric mean of how much faster than nominal a hop and a
// round trip were. A throughput divided by it, or a latency multiplied by
// it, is the figure at nominal host speed.
func (h *hostProbe) hostSpeed() float64 {
	if len(h.hopNS) == 0 {
		return 1
	}
	return math.Sqrt(nominalHopNS / median(h.hopNS) * nominalPingUS / median(h.pingUS))
}

// close ends the echo goroutines and unmaps the tables.
func (h *hostProbe) close() {
	for _, c := range h.conns {
		c.Close()
	}
	if h.ln != nil {
		h.ln.Close()
	}
	h.echo.Wait()
	for _, t := range h.tables {
		_ = syscall.Munmap(t) // nothing to do about a mapping that will not go
	}
	h.tables, h.conns = nil, nil
}
