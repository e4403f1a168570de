// Shard sources for the executor: a Source yields the shards a run
// streams through the lane pool. Slice adapts pre-sharded inputs; Records
// and Chunks generalize the one-shot SplitRecords/SplitBytes helpers to
// unbounded io.Reader inputs, in the style of streaming chunked execution
// — the whole input never has to be resident, and a shard is cut so no
// record straddles two lanes.
package sched

import (
	"bytes"
	"io"
)

// DefaultChunkBytes is the shard size Records and Chunks aim for when the
// caller passes 0. It is a compromise between per-shard dispatch overhead
// and keeping many lanes busy on moderate inputs.
const DefaultChunkBytes = 64 << 10

// Source yields successive input shards. Next returns io.EOF after the last
// shard; any other error aborts the run. Implementations need not be
// safe for concurrent use: the executor calls Next from one goroutine.
type Source interface {
	Next() ([]byte, error)
}

// Recycler is an optional Source extension: when a source implements it, the
// executor hands each shard buffer back through Recycle once the shard is
// finally resolved (delivered, failed with no retry left, or dropped on
// cancellation), so a streaming source can reuse the array for a later shard
// instead of allocating one per chunk. Unlike Next, Recycle must be safe for
// concurrent use — pool workers return buffers as they finish. Slice
// deliberately does not implement it: those shards belong to the caller.
type Recycler interface {
	Recycle(buf []byte)
}

// releaser is implemented by a source that holds a pooled buffer between
// shards: Run releases it once the run is over, drained or not. A released
// source yields io.EOF.
type releaser interface {
	release()
}

// Slice adapts an in-memory shard list to a Source.
func Slice(shards [][]byte) Source { return &sliceSource{shards: shards} }

type sliceSource struct {
	shards [][]byte
	i      int
}

func (s *sliceSource) Next() ([]byte, error) {
	if s.i >= len(s.shards) {
		return nil, io.EOF
	}
	sh := s.shards[s.i]
	s.i++
	return sh, nil
}

// bufPool hands the streaming sources' shard buffers to the shared slab
// manager, so chunker buffers and sink output windows recycle through the
// same per-class rings.
type bufPool struct{}

// get returns a zero-length buffer with at least min capacity.
func (bufPool) get(min int) []byte { return mem.Get(min) }

func (bufPool) put(buf []byte) { mem.Put(buf) }

// Chunks streams r as fixed-size shards of chunkBytes (DefaultChunkBytes
// when 0). The final shard may be shorter. The returned source implements
// Recycler, so under the executor the steady state reuses a few pool-sized
// buffers instead of allocating one per chunk.
func Chunks(r io.Reader, chunkBytes int) Source {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &chunkSource{r: r, chunk: chunkBytes}
}

type chunkSource struct {
	r     io.Reader
	chunk int
	done  bool
	pool  bufPool
}

// Recycle accepts a finished shard buffer back into the pool.
func (c *chunkSource) Recycle(buf []byte) { c.pool.put(buf) }

func (c *chunkSource) Next() ([]byte, error) {
	if c.done {
		return nil, io.EOF
	}
	buf := c.pool.get(c.chunk)[:c.chunk]
	n, err := io.ReadFull(c.r, buf)
	if err == io.EOF {
		c.done = true
		c.pool.put(buf)
		return nil, io.EOF
	}
	if err == io.ErrUnexpectedEOF {
		c.done = true
		return buf[:n], nil
	}
	if err != nil {
		c.pool.put(buf)
		return nil, err
	}
	return buf, nil
}

// Records streams r as record-aligned shards: each shard is at least
// chunkBytes long (DefaultChunkBytes when 0) and is cut just after the next
// separator byte, so no record straddles two shards — the streaming
// generalization of SplitRecords. A record longer than chunkBytes extends
// its shard rather than being split. Trailing bytes without a final
// separator form the last shard. The returned source implements Recycler
// (see Chunks).
func Records(r io.Reader, chunkBytes int, sep byte) Source {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &recordSource{r: r, chunk: chunkBytes, sep: sep}
}

type recordSource struct {
	r     io.Reader
	chunk int
	sep   byte
	rest  []byte // pooled: bytes read past the last emitted separator
	done  bool
	pool  bufPool
}

// Recycle accepts a finished shard buffer back into the pool.
func (s *recordSource) Recycle(buf []byte) { s.pool.put(buf) }

// release hands the carry-over buffer back to the pool.
func (s *recordSource) release() {
	s.pool.put(s.rest)
	s.rest, s.done = nil, true
}

func (s *recordSource) Next() ([]byte, error) {
	for {
		// Emit if the carried bytes already hold a separator at or past
		// the chunk target.
		if len(s.rest) >= s.chunk {
			if i := bytes.IndexByte(s.rest[s.chunk-1:], s.sep); i >= 0 {
				cut := s.chunk + i
				shard := s.rest[:cut]
				// The shard owns its array until recycled, so the tail
				// moves to a (pooled) fresh buffer.
				s.rest = append(s.pool.get(s.chunk), s.rest[cut:]...)
				return shard, nil
			}
		}
		if s.done {
			shard := s.rest
			s.rest = nil
			if len(shard) == 0 {
				s.pool.put(shard)
				return nil, io.EOF
			}
			return shard, nil
		}
		// Read straight into rest's spare capacity; a full buffer (a record
		// running past the chunk target) grows through the pool.
		switch {
		case s.rest == nil:
			s.rest = s.pool.get(s.chunk)
		case len(s.rest) == cap(s.rest):
			grown := append(s.pool.get(2*cap(s.rest)), s.rest...)
			s.pool.put(s.rest)
			s.rest = grown
		}
		n, err := s.r.Read(s.rest[len(s.rest):cap(s.rest)])
		s.rest = s.rest[:len(s.rest)+n]
		if err == io.EOF {
			s.done = true
			continue
		}
		if err != nil {
			return nil, err
		}
	}
}
