package machine_test

import (
	"testing"

	"udp/internal/machine"
)

// takeBitSerial is the bit-at-a-time reference for BitStream.Take: n bits
// MSB first from bit pos, zero past the end of data.
func takeBitSerial(data []byte, pos int64, n uint8) uint32 {
	var v uint32
	for i := uint8(0); i < n; i++ {
		byteIdx := pos >> 3
		if byteIdx >= int64(len(data)) {
			v <<= 1
		} else {
			v = v<<1 | uint32(data[byteIdx]>>(7-uint(pos&7))&1)
		}
		pos++
	}
	return v
}

// TestTakeMatchesBitSerial checks Take against the bit-serial reference for
// every start bit within a byte, every width 0..32, and reads that straddle
// or start past the end of the data.
func TestTakeMatchesBitSerial(t *testing.T) {
	data := []byte{0xA5, 0x3C, 0xFF, 0x00, 0x81, 0x7E, 0x12, 0xED}
	for _, size := range []int{0, 1, 3, 5, len(data)} {
		d := data[:size]
		end := int64(size)*8 + 40
		for pos := int64(0); pos <= end; pos++ {
			for n := uint8(0); n <= 32; n++ {
				bs := machine.NewBitStream(d)
				bs.SeekBit(pos)
				at := bs.Pos() // SeekBit clamps to the end
				want := takeBitSerial(d, at, n)
				if got := bs.Take(n); got != want {
					t.Fatalf("len %d pos %d n %d: Take = %#x, bit-serial %#x", size, at, n, got, want)
				}
				if bs.Pos() != at+int64(n) {
					t.Fatalf("len %d pos %d n %d: cursor at %d, want %d", size, at, n, bs.Pos(), at+int64(n))
				}
			}
		}
	}
	// Past-the-end reads from a cursor already beyond the data (Take keeps
	// advancing after Has fails).
	bs := machine.NewBitStream(data[:2])
	bs.Take(13)
	for i := 0; i < 4; i++ {
		at := bs.Pos()
		if got, want := bs.Take(11), takeBitSerial(data[:2], at, 11); got != want {
			t.Fatalf("read at bit %d past end: %#x, want %#x", at, got, want)
		}
	}
}
