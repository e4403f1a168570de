package snappy

import (
	"fmt"

	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/machine"
)

// Window layout constants for the UDP programs. Registers carry absolute
// window addresses; only the hash-table offset is baked into immediates.
const (
	encCodeLimit = 2048 // encoder code must fit below the table
	encTblOff    = 2048 // hash table: 2^hashBits uint16 entries
	encTblBytes  = 2 << hashBits
	encInOff     = encTblOff + encTblBytes // staged input block

	decCodeLimit = 4096 // decoder code limit; input staged after it
	decInOff     = 4096
)

// Block is one compressed block plus its raw length (the paper's
// block-compatible library interface: lanes process whole blocks).
type Block struct {
	Comp   []byte
	RawLen int
}

// BlocksToStream concatenates blocks into a standard Snappy stream.
func BlocksToStream(blocks []Block) []byte {
	raw := 0
	for _, b := range blocks {
		raw += b.RawLen
	}
	out := appendUvarint(nil, uint64(raw))
	for _, b := range blocks {
		out = append(out, b.Comp...)
	}
	return out
}

// buildEncoder constructs the UDP compressor program: a flagged-dispatch
// scan loop with Hash probes into a local-memory table, LoopCmp match
// extension, and literal/copy emission to the output stream.
func buildEncoder(blockSize int) *core.Program {
	p := core.NewProgram("snappy-enc", 8)
	p.DataBase = encCodeLimit
	p.DataBytes = encTblBytes + blockSize

	f := func(name string, bits uint8) *core.State {
		s := p.AddState(name, core.ModeFlagged)
		s.SymbolBits = bits
		return s
	}
	start := f("start", 1)
	scanchk := f("scanchk", 1)
	matched := f("matched", 1)
	lit0 := f("lit0", 1)
	litsize := f("litsize", 1)
	afterlit := f("afterlit", 1)
	copyloop := f("copyloop", 1)
	copyfin := f("copyfin", 1)
	halt := f("halt", 1)
	p.Entry = start

	A := func(op core.Opcode, dst, ref, src core.Reg, imm int32) core.Action {
		return core.Action{Op: op, Dst: dst, Ref: ref, Src: src, Imm: imm}
	}

	halt.On(0, halt, core.AHalt(0))
	halt.On(1, halt, core.AHalt(0))

	start.On(0, scanchk, A(core.OpSge, core.R0, core.R1, core.R3, 0))

	// scanchk: R0=1 -> no more probe positions: flush the final literal.
	scanchk.On(1, lit0,
		A(core.OpSub, core.R7, core.R13, core.R2, 0), // litLen = inEnd - litStart
		core.AMovi(core.R12, 1),                      // continuation: halt
		A(core.OpSeqi, core.R0, 0, core.R7, 0),
	)
	// scanchk: R0=0 -> probe the hash table at the current position.
	scanchk.On(0, matched,
		A(core.OpLd32, core.R4, 0, core.R1, 0),         // cur = load32(s)
		A(core.OpHash, core.R5, 0, core.R4, hashBits),  // h
		A(core.OpShli, core.R5, 0, core.R5, 1),         // byte offset
		A(core.OpLd16, core.R6, 0, core.R5, encTblOff), // cand (relative)
		A(core.OpSubi, core.R9, 0, core.R1, encInOff),  // rel(s)
		A(core.OpSt16, core.R5, 0, core.R9, encTblOff), // table[h] = rel(s)
		A(core.OpAddi, core.R6, 0, core.R6, encInOff),  // cand absolute
		A(core.OpLd32, core.R8, 0, core.R6, 0),         // load32(cand)
		A(core.OpSeq, core.R9, core.R8, core.R4, 0),    // content match
		A(core.OpSne, core.R10, core.R6, core.R1, 0),   // cand != s
		A(core.OpAnd, core.R0, core.R9, core.R10, 0),
	)
	// matched: R0=0 -> advance one position and re-check.
	matched.On(0, scanchk,
		A(core.OpAddi, core.R1, 0, core.R1, 1),
		A(core.OpSge, core.R0, core.R1, core.R3, 0),
	)
	// matched: R0=1 -> emit pending literal, then the copy.
	matched.On(1, lit0,
		A(core.OpSub, core.R7, core.R1, core.R2, 0), // litLen = s - litStart
		core.AMovi(core.R12, 0),                     // continuation: copy
		A(core.OpSeqi, core.R0, 0, core.R7, 0),
	)

	// lit0: R0=1 -> nothing pending; R0=0 -> pick the tag form.
	lit0.On(1, afterlit, core.AMov(core.R0, core.R12))
	lit0.On(0, litsize, A(core.OpSlti, core.R0, 0, core.R7, 61))

	// litsize: R0=1 -> short literal (1..60), 1-byte tag.
	litsize.On(1, afterlit,
		A(core.OpSubi, core.R9, 0, core.R7, 1),
		A(core.OpShli, core.R9, 0, core.R9, 2),
		core.AOut8(core.R9),
		A(core.OpOutMem, 0, core.R2, core.R7, 0),
		core.AMov(core.R0, core.R12),
	)
	// litsize: R0=0 -> long literal, 2-byte length (code 61).
	litsize.On(0, afterlit,
		core.AMovi(core.R9, 61<<2|tagLiteral),
		core.AOut8(core.R9),
		A(core.OpSubi, core.R9, 0, core.R7, 1),
		core.AOut8(core.R9),
		A(core.OpShri, core.R10, 0, core.R9, 8),
		core.AOut8(core.R10),
		A(core.OpOutMem, 0, core.R2, core.R7, 0),
		core.AMov(core.R0, core.R12),
	)

	// afterlit: R0=1 -> stream done; R0=0 -> extend and emit the copy.
	afterlit.On(1, halt, core.AHalt(0))
	afterlit.On(0, copyloop,
		A(core.OpAddi, core.R9, 0, core.R6, 4),
		A(core.OpAddi, core.R10, 0, core.R1, 4),
		A(core.OpLoopCmp, core.R7, core.R9, core.R10, 0), // extension
		A(core.OpAddi, core.R7, 0, core.R7, 4),           // total length
		A(core.OpSub, core.R11, core.R13, core.R1, 0),    // remaining
		A(core.OpMin, core.R7, core.R7, core.R11, 0),
		A(core.OpSub, core.R8, core.R1, core.R6, 0), // offset
		A(core.OpAdd, core.R1, core.R1, core.R7, 0), // s += len
		core.AMov(core.R2, core.R1),                 // litStart = s
		A(core.OpSlti, core.R9, 0, core.R7, 65),
		A(core.OpXori, core.R0, 0, core.R9, 1), // R0 = len > 64
	)
	// copyloop: R0=1 -> emit a 60-byte copy2 chunk and loop.
	copyloop.On(1, copyloop,
		core.AMovi(core.R9, 59<<2|tagCopy2),
		core.AOut8(core.R9),
		A(core.OpAndi, core.R10, 0, core.R8, 255),
		core.AOut8(core.R10),
		A(core.OpShri, core.R10, 0, core.R8, 8),
		core.AOut8(core.R10),
		A(core.OpSubi, core.R7, 0, core.R7, 60),
		A(core.OpSlti, core.R9, 0, core.R7, 65),
		A(core.OpXori, core.R0, 0, core.R9, 1),
	)
	// copyloop: R0=0 -> choose the final element form: the short
	// near-copy 1-byte-offset encoding when it fits, else copy2.
	copyloop.On(0, copyfin,
		A(core.OpSlti, core.R9, 0, core.R7, 12),
		A(core.OpSlti, core.R10, 0, core.R8, 2048),
		A(core.OpAnd, core.R0, core.R9, core.R10, 0),
	)
	// copyfin: R0=1 -> copy1 (2 bytes).
	copyfin.On(1, scanchk,
		A(core.OpShri, core.R9, 0, core.R8, 8),
		A(core.OpShli, core.R9, 0, core.R9, 5),
		A(core.OpSubi, core.R10, 0, core.R7, 4),
		A(core.OpShli, core.R10, 0, core.R10, 2),
		A(core.OpOr, core.R9, core.R9, core.R10, 0),
		A(core.OpOri, core.R9, 0, core.R9, tagCopy1),
		core.AOut8(core.R9),
		A(core.OpAndi, core.R10, 0, core.R8, 255),
		core.AOut8(core.R10),
		A(core.OpSge, core.R0, core.R1, core.R3, 0),
	)
	// copyfin: R0=0 -> copy2 (3 bytes).
	copyfin.On(0, scanchk,
		A(core.OpSubi, core.R9, 0, core.R7, 1),
		A(core.OpShli, core.R9, 0, core.R9, 2),
		A(core.OpOri, core.R9, 0, core.R9, tagCopy2),
		core.AOut8(core.R9),
		A(core.OpAndi, core.R10, 0, core.R8, 255),
		core.AOut8(core.R10),
		A(core.OpShri, core.R10, 0, core.R8, 8),
		core.AOut8(core.R10),
		A(core.OpSge, core.R0, core.R1, core.R3, 0),
	)
	return p
}

// buildDecoder constructs the UDP decompressor: flagged dispatch on the tag
// class selects the element handler in one cycle (the paper's "complex
// pattern detection and encoding choice"), LoopCpy performs literal and
// back-reference copies in local memory.
func buildDecoder(blockSize int) *core.Program {
	p := core.NewProgram("snappy-dec", 8)
	inCap := MaxEncodedLen(blockSize)
	outOff := (decInOff + inCap + 63) &^ 63
	p.DataBase = decInOff
	p.DataBytes = outOff + blockSize - decInOff

	f := func(name string, bits uint8) *core.State {
		s := p.AddState(name, core.ModeFlagged)
		s.SymbolBits = bits
		return s
	}
	start := f("start", 1)
	check := f("check", 1)
	tag := f("tag", 2)
	litlen := f("litlen", 1)
	litext := f("litext", 3)
	halt := f("halt", 1)
	p.Entry = start

	A := func(op core.Opcode, dst, ref, src core.Reg, imm int32) core.Action {
		return core.Action{Op: op, Dst: dst, Ref: ref, Src: src, Imm: imm}
	}
	endchk := A(core.OpSge, core.R0, core.R1, core.R3, 0)

	halt.On(0, halt, core.AHalt(0))
	halt.On(1, halt, core.AHalt(0))

	start.On(0, check, endchk)
	check.On(1, halt, core.AHalt(0))
	check.On(0, tag,
		A(core.OpLd8, core.R4, 0, core.R1, 0),
		A(core.OpAddi, core.R1, 0, core.R1, 1),
		A(core.OpAndi, core.R0, 0, core.R4, 3),
	)

	// Literal.
	tag.On(tagLiteral, litlen,
		A(core.OpShri, core.R5, 0, core.R4, 2),
		A(core.OpSlti, core.R0, 0, core.R5, 60),
	)
	litlen.On(1, check,
		A(core.OpAddi, core.R5, 0, core.R5, 1),
		A(core.OpLoopCpy, core.R2, core.R1, core.R5, 0),
		endchk,
	)
	litlen.On(0, litext, A(core.OpSubi, core.R0, 0, core.R5, 59))
	litext.On(1, check, // 1-byte length
		A(core.OpLd8, core.R5, 0, core.R1, 0),
		A(core.OpAddi, core.R1, 0, core.R1, 1),
		A(core.OpAddi, core.R5, 0, core.R5, 1),
		A(core.OpLoopCpy, core.R2, core.R1, core.R5, 0),
		endchk,
	)
	litext.On(2, check, // 2-byte length
		A(core.OpLd16, core.R5, 0, core.R1, 0),
		A(core.OpAddi, core.R1, 0, core.R1, 2),
		A(core.OpAddi, core.R5, 0, core.R5, 1),
		A(core.OpLoopCpy, core.R2, core.R1, core.R5, 0),
		endchk,
	)
	litext.On(3, halt, core.AHalt(2)) // 3/4-byte lengths unsupported
	litext.On(4, halt, core.AHalt(2))

	// Copy, 1-byte offset.
	tag.On(tagCopy1, check,
		A(core.OpShri, core.R5, 0, core.R4, 2),
		A(core.OpAndi, core.R6, 0, core.R5, 7),
		A(core.OpAddi, core.R6, 0, core.R6, 4), // length
		A(core.OpShri, core.R7, 0, core.R4, 5),
		A(core.OpShli, core.R7, 0, core.R7, 8),
		A(core.OpLd8, core.R8, 0, core.R1, 0),
		A(core.OpAddi, core.R1, 0, core.R1, 1),
		A(core.OpOr, core.R8, core.R7, core.R8, 0), // offset
		A(core.OpSub, core.R9, core.R2, core.R8, 0),
		A(core.OpLoopCpy, core.R2, core.R9, core.R6, 0),
		endchk,
	)
	// Copy, 2-byte offset.
	tag.On(tagCopy2, check,
		A(core.OpShri, core.R6, 0, core.R4, 2),
		A(core.OpAddi, core.R6, 0, core.R6, 1), // length
		A(core.OpLd16, core.R8, 0, core.R1, 0),
		A(core.OpAddi, core.R1, 0, core.R1, 2),
		A(core.OpSub, core.R9, core.R2, core.R8, 0),
		A(core.OpLoopCpy, core.R2, core.R9, core.R6, 0),
		endchk,
	)
	// Copy, 4-byte offset.
	tag.On(tagCopy4, check,
		A(core.OpShri, core.R6, 0, core.R4, 2),
		A(core.OpAddi, core.R6, 0, core.R6, 1),
		A(core.OpLd32, core.R8, 0, core.R1, 0),
		A(core.OpAddi, core.R1, 0, core.R1, 4),
		A(core.OpSub, core.R9, core.R2, core.R8, 0),
		A(core.OpLoopCpy, core.R2, core.R9, core.R6, 0),
		endchk,
	)
	return p
}

// Codec holds laid-out UDP compressor and decompressor images for one block
// size, plus reusable lanes.
type Codec struct {
	BlockSize int
	encImg    *effclip.Image
	decImg    *effclip.Image
	decOutOff int
}

// NewCodec builds and lays out the UDP programs for the block size.
func NewCodec(blockSize int) (*Codec, error) {
	if blockSize <= 0 || blockSize > 64*1024 {
		return nil, fmt.Errorf("snappy: block size %d out of range (1..65536)", blockSize)
	}
	enc, err := effclip.Layout(buildEncoder(blockSize), effclip.Options{})
	if err != nil {
		return nil, err
	}
	dec, err := effclip.Layout(buildDecoder(blockSize), effclip.Options{})
	if err != nil {
		return nil, err
	}
	inCap := MaxEncodedLen(blockSize)
	return &Codec{
		BlockSize: blockSize,
		encImg:    enc,
		decImg:    dec,
		decOutOff: (decInOff + inCap + 63) &^ 63,
	}, nil
}

// EncBanks and DecBanks report the per-lane memory footprint, the quantity
// restricted addressing trades against parallelism (Figure 11).
func (c *Codec) EncBanks() int { return c.encImg.Banks() }
func (c *Codec) DecBanks() int { return c.decImg.Banks() }

// EncLanes and DecLanes are the lane-parallelism limits.
func (c *Codec) EncLanes() int { return machine.MaxLanes(c.encImg) }
func (c *Codec) DecLanes() int { return machine.MaxLanes(c.decImg) }

// CompressUDP compresses src on one UDP lane, block by block, returning the
// blocks and the accumulated lane statistics.
func (c *Codec) CompressUDP(src []byte) ([]Block, machine.Stats, error) {
	lane, err := machine.NewLane(c.encImg, 0)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	defer lane.Close()
	var blocks []Block
	var total machine.Stats
	zeros := make([]byte, encTblBytes)
	for off := 0; off < len(src) || off == 0; off += c.BlockSize {
		end := off + c.BlockSize
		if end > len(src) {
			end = len(src)
		}
		block := src[off:end]
		lane.Reset()
		if err := lane.WriteMem(encTblOff, zeros); err != nil {
			return nil, total, err
		}
		if err := lane.WriteMem(encInOff, block); err != nil {
			return nil, total, err
		}
		lane.SetReg(core.R1, encInOff)
		lane.SetReg(core.R2, encInOff)
		lane.SetReg(core.R3, uint32(encInOff+len(block)-3))
		lane.SetReg(core.R13, uint32(encInOff+len(block)))
		if err := lane.Run(0); err != nil {
			return nil, total, err
		}
		total.Add(lane.Stats())
		blocks = append(blocks, Block{
			Comp:   append([]byte(nil), lane.Output()...),
			RawLen: len(block),
		})
		if len(src) == 0 {
			break
		}
	}
	return blocks, total, nil
}

// DecompressUDP expands blocks on one UDP lane, returning the raw bytes and
// accumulated statistics.
func (c *Codec) DecompressUDP(blocks []Block) ([]byte, machine.Stats, error) {
	lane, err := machine.NewLane(c.decImg, 0)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	defer lane.Close()
	var out []byte
	var total machine.Stats
	for _, b := range blocks {
		if b.RawLen > c.BlockSize {
			return nil, total, fmt.Errorf("snappy: block raw length %d exceeds codec block size %d", b.RawLen, c.BlockSize)
		}
		lane.Reset()
		if err := lane.WriteMem(decInOff, b.Comp); err != nil {
			return nil, total, err
		}
		lane.SetReg(core.R1, decInOff)
		lane.SetReg(core.R2, uint32(c.decOutOff))
		lane.SetReg(core.R3, uint32(decInOff+len(b.Comp)))
		if err := lane.Run(0); err != nil {
			return nil, total, err
		}
		total.Add(lane.Stats())
		n := int(lane.Reg(core.R2)) - c.decOutOff
		if n != b.RawLen {
			return nil, total, fmt.Errorf("snappy: UDP decoded %d bytes, expected %d", n, b.RawLen)
		}
		out = append(out, lane.Mem()[c.decOutOff:c.decOutOff+n]...)
	}
	return out, total, nil
}

// EncodeBlocked is the CPU-baseline blocked compressor (skip heuristic
// optional) returning the same Block structure for fair comparison.
func EncodeBlocked(src []byte, blockSize int, skip bool) []Block {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	var blocks []Block
	for off := 0; off < len(src) || off == 0; off += blockSize {
		end := off + blockSize
		if end > len(src) {
			end = len(src)
		}
		blocks = append(blocks, Block{
			Comp:   encodeBlock(nil, src[off:end], skip),
			RawLen: end - off,
		})
		if len(src) == 0 {
			break
		}
	}
	return blocks
}
