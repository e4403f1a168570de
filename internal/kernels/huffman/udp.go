package huffman

import (
	"fmt"

	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/machine"
)

// firstPassDataBase is the generous first-pass table offset; BuildDecoder
// lays the program out twice, re-baking table addresses tightly after the
// code size is known.
const firstPassDataBase = 32768

// Variant names one of the four variable-size-symbol designs of Figure 7/8.
type Variant int

const (
	// SsF is the UAP's fixed 8-bit dispatch with full tree unrolling.
	SsF Variant = iota
	// SsT specifies the symbol size per transition (wide encoding, with
	// per-transition putback of excess bits).
	SsT
	// SsReg keeps the symbol size in a register written by actions.
	SsReg
	// SsRef combines the register with refill transitions (the UDP).
	SsRef
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	return [...]string{"SsF", "SsT", "SsReg", "SsRef"}[v]
}

// BuildEncoder constructs the UDP Huffman encoder: a single state whose
// majority transition looks the symbol up in a packed [len|code] table and
// emits the code bits (flexible-source dispatch plus EmitBits).
func BuildEncoder(t *Table) *core.Program {
	p := core.NewProgram("huffenc", 8)
	p.DataBase = 2048
	p.DataBytes = 512
	tbl := make([]byte, 512)
	for s := 0; s < 256; s++ {
		c := t.Codes[s]
		packed := uint16(c.Len)<<12 | c.Bits&0xFFF
		tbl[2*s] = byte(packed)
		tbl[2*s+1] = byte(packed >> 8)
	}
	p.DataInit[0] = tbl
	st := p.AddState("enc", core.ModeStream)
	st.Majority(st,
		core.Action{Op: core.OpShli, Dst: core.R3, Src: core.RSym, Imm: 1},
		core.Action{Op: core.OpLd16, Dst: core.R1, Src: core.R3, Imm: int32(p.DataBase)},
		core.Action{Op: core.OpShri, Dst: core.R2, Src: core.R1, Imm: 12},
		core.Action{Op: core.OpAndi, Dst: core.R4, Src: core.R1, Imm: 0xFFF},
		core.Action{Op: core.OpEmitBitsR, Src: core.R4, Ref: core.R2},
	)
	return p
}

// decBuild carries shared construction state for the decoder builders.
type decBuild struct {
	prog   *core.Program
	tr     *tree
	states map[int32]*core.State
	tblOff map[int32]int
	next   int // next free table offset (relative to DataBase)
}

// BuildDecoder constructs the UDP decoder program for the given design
// variant. SsT reuses the SsReg program shape; the kernel's measurement
// helpers apply its free-width accounting.
func BuildDecoder(t *Table, v Variant) (*core.Program, error) {
	build := func(dataBase int) (*core.Program, error) {
		switch v {
		case SsRef, SsT:
			// SsT shares the chunk-and-putback structure of SsRef;
			// the widths ride in (wider) per-transition encodings
			// instead of the symbol-size register + refill pair, so
			// it is laid out with wide attach (see LayoutDecoder).
			return buildSsRef(t, v, dataBase)
		case SsReg:
			return buildSsReg(t, dataBase)
		case SsF:
			return buildSsF(t)
		}
		return nil, fmt.Errorf("huffman: unknown variant %d", v)
	}
	p, err := build(firstPassDataBase)
	if err != nil || v == SsF {
		return p, err
	}
	// Second pass: re-bake table immediates just past the measured code.
	im, err := LayoutDecoder(p, v)
	if err != nil {
		return nil, err
	}
	tight := (im.CodeBytes() + 255) &^ 255
	if tight >= firstPassDataBase {
		return p, nil
	}
	return build(tight)
}

// buildSsRef builds the chunked tree walk with refill transitions: dispatch
// 8 bits, complete a codeword of length k via a refill transition that puts
// 8-k bits back, or hop to the sub-tree state for codes longer than 8 bits.
func buildSsRef(t *Table, v Variant, dataBase int) (*core.Program, error) {
	name := "huffdec-ssref"
	if v == SsT {
		name = "huffdec-sst"
	}
	p := core.NewProgram(name, 8)
	p.DataBase = dataBase
	b := &decBuild{prog: p, tr: t.buildTree(), states: map[int32]*core.State{}, tblOff: map[int32]int{}}
	root := b.state(0)
	_ = root
	// Lazily created states enqueue construction work.
	for done := 0; done < len(p.States); done++ {
		st := p.States[done]
		node := b.nodeOf(st)
		if err := b.fillSsRef(st, node); err != nil {
			return nil, err
		}
	}
	p.DataBytes = b.next
	return p, nil
}

func (b *decBuild) state(node int32) *core.State {
	if s, ok := b.states[node]; ok {
		return s
	}
	s := b.prog.AddState(fmt.Sprintf("n%d", node), core.ModeStream)
	b.states[node] = s
	b.tblOff[node] = b.next
	b.next += 256
	return s
}

func (b *decBuild) nodeOf(s *core.State) int32 {
	var node int32
	fmt.Sscanf(s.Name, "n%d", &node)
	return node
}

// walk consumes up to max bits of v (MSB first) from node, returning
// (leafSym, consumed, endNode): leafSym >= 0 when a codeword completed after
// consumed bits; endNode < 0 marks an undefined branch.
func (b *decBuild) walk(node int32, v uint32, max int) (int, int, int32) {
	cur := node
	for i := max - 1; i >= 0; i-- {
		bit := v >> uint(i) & 1
		next := b.tr.kids[cur][bit]
		if next <= -2 {
			return int(-next - 2), max - i, cur
		}
		if next == -1 {
			return -1, max - i, -1
		}
		cur = next
	}
	return -1, max, cur
}

func (b *decBuild) fillSsRef(st *core.State, node int32) error {
	p := b.prog
	root := b.states[0]
	rootEmit := []core.Action{
		core.ALd8(core.R1, core.RSym, int32(p.DataBase+b.tblOff[0])),
		core.AOut8(core.R1),
	}
	deepEmit := []core.Action{
		core.ALdx(core.R1, core.R2, core.RSym),
		core.AOut8(core.R1),
	}
	tbl := make([]byte, 256)
	for v := uint32(0); v < 256; v++ {
		sym, k, end := b.walk(node, v, 8)
		switch {
		case sym >= 0:
			tbl[v] = byte(sym)
			emit := deepEmit
			if node == 0 {
				emit = rootEmit
			}
			st.OnRefill(v, uint8(k), root, emit...)
		case end == -1:
			// Undefined branch (length-limited trees can be
			// incomplete): consume one bit and resynchronize at the
			// root; valid streams never take these.
			st.OnRefill(v, 1, root)
		default:
			deep := b.state(end)
			st.On(v, deep, core.AMovi(core.R2, int32(p.DataBase+b.tblOff[end])))
		}
	}
	p.DataInit[b.tblOff[node]] = tbl
	return nil
}

// buildSsReg builds the exact-chunk walk: each state dispatches exactly the
// minimum remaining codeword length of its subtree and SetSS actions adjust
// the width between states (Figure 7b). The SsT variant shares this shape.
func buildSsReg(t *Table, dataBase int) (*core.Program, error) {
	p := core.NewProgram("huffdec-ssreg", 8)
	p.DataBase = dataBase
	b := &decBuild{prog: p, tr: t.buildTree(), states: map[int32]*core.State{}, tblOff: map[int32]int{}}
	widths := map[int32]uint8{}
	var minDepth func(n int32) uint8
	minDepth = func(n int32) uint8 {
		d := uint8(255)
		for _, k := range b.tr.kids[n] {
			switch {
			case k <= -2:
				return 1
			case k == -1:
			default:
				if md := minDepth(k) + 1; md < d {
					d = md
				}
			}
		}
		if d > 8 {
			d = 8
		}
		return d
	}
	// state creation must know widths first
	stateW := func(node int32) *core.State {
		if s, ok := b.states[node]; ok {
			return s
		}
		w := minDepth(node)
		widths[node] = w
		s := b.prog.AddState(fmt.Sprintf("n%d", node), core.ModeStream)
		s.SymbolBits = w
		b.states[node] = s
		b.tblOff[node] = b.next
		b.next += 1 << w
		return s
	}
	rootState := stateW(0)
	p.SymbolBits = widths[0]
	rootW := widths[0]
	for done := 0; done < len(p.States); done++ {
		st := p.States[done]
		node := b.nodeOf(st)
		w := widths[node]
		tbl := make([]byte, 1<<w)
		for val := uint32(0); val < 1<<w; val++ {
			sym, k, end := b.walk(node, val, int(w))
			switch {
			case sym >= 0:
				if k != int(w) {
					return nil, fmt.Errorf("huffman: non-exact chunk (len %d, width %d)", k, w)
				}
				tbl[val] = byte(sym)
				var emit []core.Action
				if node == 0 {
					emit = append(emit, core.ALd8(core.R1, core.RSym, int32(p.DataBase+b.tblOff[0])))
				} else {
					emit = append(emit, core.ALdx(core.R1, core.R2, core.RSym))
				}
				emit = append(emit, core.AOut8(core.R1))
				if w != rootW {
					emit = append(emit, core.Action{Op: core.OpSetSS, Imm: int32(rootW)})
				}
				st.On(val, rootState, emit...)
			case end == -1:
				var acts []core.Action
				if w != rootW {
					acts = append(acts, core.Action{Op: core.OpSetSS, Imm: int32(rootW)})
				}
				st.On(val, rootState, acts...)
			default:
				deep := stateW(end)
				acts := []core.Action{core.AMovi(core.R2, int32(p.DataBase+b.tblOff[end]))}
				if widths[end] != w {
					acts = append(acts, core.Action{Op: core.OpSetSS, Imm: int32(widths[end])})
				}
				st.On(val, deep, acts...)
			}
		}
		p.DataInit[b.tblOff[node]] = tbl
	}
	p.DataBytes = b.next
	return p, nil
}

// MaxSsFStates bounds the unrolled SsF construction.
const MaxSsFStates = 512

// buildSsF builds the UAP-style unrolled decoder: always dispatch 8 bits;
// each transition emits every codeword completed within those bits (OutI
// immediates) and lands on the suspension node. Program size explodes with
// tree depth (Figure 8's point); the layout uses wide attach like the UAP.
func buildSsF(t *Table) (*core.Program, error) {
	p := core.NewProgram("huffdec-ssf", 8)
	b := &decBuild{prog: p, tr: t.buildTree(), states: map[int32]*core.State{}, tblOff: map[int32]int{}}
	mk := func(node int32) *core.State {
		if s, ok := b.states[node]; ok {
			return s
		}
		s := p.AddState(fmt.Sprintf("n%d", node), core.ModeStream)
		b.states[node] = s
		return s
	}
	mk(0)
	for done := 0; done < len(p.States); done++ {
		if len(p.States) > MaxSsFStates {
			return nil, fmt.Errorf("huffman: SsF unroll exceeds %d states", MaxSsFStates)
		}
		st := p.States[done]
		node := b.nodeOf(st)
		for v := uint32(0); v < 256; v++ {
			var emits []core.Action
			cur := node
			dead := false
			for i := 7; i >= 0 && !dead; i-- {
				bit := v >> uint(i) & 1
				next := b.tr.kids[cur][bit]
				switch {
				case next <= -2:
					emits = append(emits, core.Action{Op: core.OpOutI, Imm: int32(-next - 2)})
					cur = 0
				case next == -1:
					dead = true
				default:
					cur = next
				}
			}
			if dead {
				st.On(v, mk(0))
				continue
			}
			st.On(v, mk(cur), emits...)
		}
	}
	return p, nil
}

// LayoutDecoder lays a decoder out with the options its variant requires.
func LayoutDecoder(p *core.Program, v Variant) (*effclip.Image, error) {
	opts := effclip.Options{}
	if v == SsF || v == SsT {
		opts.WideAttach = true
		opts.MaxWords = core.LocalMemBytes / core.WordBytes
	}
	return effclip.Layout(p, opts)
}

// RunDecoder executes a decoder image over the packed stream, returning
// outLen decoded bytes and the lane statistics. The input is zero-padded so
// trailing codewords shorter than the dispatch width still decode; the junk
// symbols the padding produces are truncated away.
func RunDecoder(im *effclip.Image, comp []byte, outLen int) ([]byte, machine.Stats, error) {
	padded := make([]byte, len(comp)+2)
	copy(padded, comp)
	lane, err := machine.NewLane(im, 0)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	defer lane.Close()
	lane.SetInput(padded)
	if err := lane.Run(0); err != nil {
		return nil, machine.Stats{}, err
	}
	out := lane.Output()
	if len(out) < outLen {
		return nil, lane.Stats(), fmt.Errorf("huffman: UDP decoded %d of %d symbols", len(out), outLen)
	}
	return append([]byte(nil), out[:outLen]...), lane.Stats(), nil
}

// RunEncoder executes the encoder image over data, returning the packed
// bytes (flushed to a byte boundary) and the lane statistics.
func RunEncoder(im *effclip.Image, data []byte) ([]byte, machine.Stats, error) {
	lane, err := machine.NewLane(im, 0)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	defer lane.Close()
	lane.SetInput(data)
	if err := lane.Run(0); err != nil {
		return nil, machine.Stats{}, err
	}
	lane.FlushBits()
	return append([]byte(nil), lane.Output()...), lane.Stats(), nil
}
