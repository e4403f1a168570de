//go:build race

package server

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a share of its Puts, so net/http's pooled
// buffers are allocated again and a request costs more bytes.
const raceEnabled = true
