package machine

import "udp/internal/memsys"

// SwapSlabs points lane construction at m and returns the undo, so a test
// can hand lanes slabs it prepared and count what comes back.
func SwapSlabs(m *memsys.Manager) (restore func()) {
	old := slabs
	slabs = m
	return func() { slabs = old }
}
