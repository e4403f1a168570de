package machine

import "udp/internal/memsys"

// SwapSlabs points lane construction at m and returns the undo, so a test
// can hand lanes slabs it prepared and count what comes back.
func SwapSlabs(m *memsys.Manager) (restore func()) {
	old := slabs
	slabs = m
	return func() { slabs = old }
}

// Watermark returns the livelock high-water mark and stall count, so the
// differential harness can require every tier to leave them where the
// memory interpreter does.
func (l *Lane) Watermark() (mark, stall uint64) { return l.progressMark, l.stall }
