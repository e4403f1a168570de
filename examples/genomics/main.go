// genomics: the paper's named future-work domain (Section 8:
// "exploration of additional new application spaces ... e.g.
// bioinformatics") built from the existing kernels: parse a FASTA stream
// with a CSV-style FSM, scan for IUPAC-degenerate motifs with the automata
// compiler, and 2-bit-pack the sequence with the bit-pack kernel — three UDP
// programs composed into one pipeline.
//
//	go run ./examples/genomics
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"udp"
	"udp/internal/core"
	"udp/internal/kernels/encodings"
	"udp/internal/kernels/pattern"
)

// fasta synthesizes records with headers and 70-column sequence lines.
func fasta(records, seqLen int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	bases := "ACGT"
	for r := 0; r < records; r++ {
		fmt.Fprintf(&b, ">chr%d synthetic\n", r+1)
		for i := 0; i < seqLen; i++ {
			if i > 0 && i%70 == 0 {
				b.WriteByte('\n')
			}
			b.WriteByte(bases[rng.Intn(4)])
		}
		// Plant a TATA box now and then.
		if rng.Intn(2) == 0 {
			b.WriteString("TATAAA")
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// buildFastaFilter strips headers and newlines, emitting only sequence
// bases (a two-state FSM: sequence vs header line).
func buildFastaFilter() *udp.Program {
	p := udp.NewProgram("fastafilter", 8)
	seq := p.AddState("seq", udp.ModeStream)
	hdr := p.AddState("hdr", udp.ModeStream)
	seq.On('>', hdr)
	seq.On('\n', seq)
	seq.Majority(seq, core.AOut8(core.RSym))
	hdr.On('\n', seq)
	hdr.Majority(hdr)
	return p
}

func main() {
	data := fasta(40, 4000, 7)
	fmt.Printf("FASTA input: %.1f KB, %d records\n", float64(len(data))/1024, 40)

	// Stage 1: strip headers/newlines on the UDP.
	im, err := udp.Compile(buildFastaFilter())
	if err != nil {
		log.Fatal(err)
	}
	lane, err := udp.RunLane(im, data)
	if err != nil {
		log.Fatal(err)
	}
	seq := append([]byte(nil), lane.Output()...)
	if bytes.ContainsAny(seq, ">\n") {
		log.Fatal("filter leaked non-sequence bytes")
	}
	fmt.Printf("stage 1 (parse): %d bases at %.0f MB/s/lane\n",
		len(seq), udp.RateMBps(len(data), lane.Stats().Cycles))

	// Stage 2: motif scan. IUPAC degenerate motif TATAWA (W = A|T) plus a
	// GC-box, compiled through the regex front end to an ADFA program.
	motifs := []string{"TATA(A|T)A", "GGGCGG"}
	set, err := pattern.Compile(motifs)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := set.BuildADFA()
	if err != nil {
		log.Fatal(err)
	}
	mim, err := udp.Compile(prog)
	if err != nil {
		log.Fatal(err)
	}
	mlane, err := udp.RunLane(mim, seq)
	if err != nil {
		log.Fatal(err)
	}
	hits := pattern.Dedup(mlane.Matches())
	want := set.MatchCPU(seq)
	if len(hits) != len(want) {
		log.Fatalf("UDP found %d motifs, CPU %d", len(hits), len(want))
	}
	perMotif := map[int32]int{}
	for _, h := range hits {
		perMotif[h.ID]++
	}
	fmt.Printf("stage 2 (motif scan): %d hits (%s=%d, %s=%d) at %.0f MB/s/lane\n",
		len(hits), motifs[0], perMotif[0], motifs[1], perMotif[1],
		udp.RateMBps(len(seq), mlane.Stats().Cycles))

	// Stage 3: 2-bit pack the sequence (A=0 C=1 G=2 T=3) on the UDP.
	codes := make([]byte, len(seq))
	for i, b := range seq {
		codes[i] = byte(strings.IndexByte("ACGT", b))
	}
	packProg, err := encodings.BuildBitPacker(2)
	if err != nil {
		log.Fatal(err)
	}
	pim, err := udp.Compile(packProg)
	if err != nil {
		log.Fatal(err)
	}
	plane, err := udp.NewLane(pim, 0)
	if err != nil {
		log.Fatal(err)
	}
	plane.SetInput(codes)
	if err := plane.Run(0); err != nil {
		log.Fatal(err)
	}
	plane.FlushBits()
	packed := plane.Output()
	ref, err := encodings.BitPack(codes, 2)
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(packed, ref) {
		log.Fatal("UDP packing differs from baseline")
	}
	fmt.Printf("stage 3 (2-bit pack): %d -> %d bytes (4.0x) at %.0f MB/s/lane\n",
		len(seq), len(packed), udp.RateMBps(len(seq), plane.Stats().Cycles))
	plane.Close()
}
