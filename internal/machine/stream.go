// Package machine is the cycle-level simulator of the UDP: it executes
// EffCLiP-laid-out machine images word by word, modeling the paper's
// micro-architecture (Figure 23): the Dispatch unit (multi-way dispatch with
// signature validation and fallback), the Stream Buffer + Prefetch unit
// (variable-size symbols, putback/refill), and the Action unit, together with
// the lane-local window of the multi-bank memory. It maintains the cycle and
// event counters the evaluation and energy models consume.
package machine

// BitStream is the lane stream buffer: an MSB-first bit cursor over an input
// byte slice with putback support (paper Section 3.2.2). The prefetch unit is
// modeled as zero-latency (stream reads are hidden behind dispatch).
type BitStream struct {
	data []byte
	pos  int64 // bit position
}

// NewBitStream wraps data in a stream positioned at bit 0.
func NewBitStream(data []byte) *BitStream { return &BitStream{data: data} }

// Reset rebinds the stream to data at bit 0, letting a lane reuse one
// BitStream across shards instead of allocating per input.
func (b *BitStream) Reset(data []byte) {
	b.data = data
	b.pos = 0
}

// Has reports whether n more bits are available.
func (b *BitStream) Has(n uint8) bool { return b.pos+int64(n) <= int64(len(b.data))*8 }

// Len returns the total stream length in bits.
func (b *BitStream) Len() int64 { return int64(len(b.data)) * 8 }

// Pos returns the current bit position.
func (b *BitStream) Pos() int64 { return b.pos }

// SeekBit sets the bit position (clamped to the stream bounds).
func (b *BitStream) SeekBit(pos int64) {
	if pos < 0 {
		pos = 0
	}
	if max := b.Len(); pos > max {
		pos = max
	}
	b.pos = pos
}

// Take consumes the next n bits (n <= 32) MSB first and returns them in the
// low bits of the result. The caller must check Has first; Take returns what
// remains zero-padded otherwise.
func (b *BitStream) Take(n uint8) uint32 {
	v := peekBits(b.data, b.pos, n)
	b.pos += int64(n)
	return v
}

// peekBits returns the n bits (n <= 32) of data starting at bit pos, MSB
// first, in the low bits of the result; bits past the end read as zero.
func peekBits(data []byte, pos int64, n uint8) uint32 {
	if i, skip := pos>>3, uint8(pos&7); skip+n <= 8 && uint64(i) < uint64(len(data)) {
		return uint32(data[i]>>(8-skip-n)) & (1<<n - 1)
	}
	return peekWide(data, pos, n)
}

// peekWide is peekBits for reads that cross a byte boundary or the end of
// data: it assembles them from at most five byte loads (pos&7 + 32 bits
// span five bytes).
func peekWide(data []byte, pos int64, n uint8) uint32 {
	i, skip := pos>>3, uint(pos&7)
	nb := int64(skip+uint(n)+7) >> 3
	var w uint64
	for k := i; k < i+nb; k++ {
		w <<= 8
		if k < int64(len(data)) {
			w |= uint64(data[k])
		}
	}
	return uint32(w >> (uint(nb)*8 - skip - uint(n)) & (1<<n - 1))
}

// TakeByteFast consumes one aligned byte when possible, else falls back to
// Take(8). It is the common case for 8-bit symbol programs.
func (b *BitStream) TakeByteFast() uint32 {
	if b.pos&7 == 0 {
		i := b.pos >> 3
		if i < int64(len(b.data)) {
			b.pos += 8
			return uint32(b.data[i])
		}
	}
	return b.Take(8)
}

// PutBack returns n bits to the stream (refill).
func (b *BitStream) PutBack(n uint8) {
	b.pos -= int64(n)
	if b.pos < 0 {
		b.pos = 0
	}
}
