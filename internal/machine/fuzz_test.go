package machine_test

import (
	"sync"
	"testing"

	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/xmlparse"
	"udp/internal/machine"
)

var (
	fuzzImagesOnce sync.Once
	fuzzImages     []*effclip.Image
)

// fuzzKernels lays out the run-skipping shapes once: a full stay set
// (echo), field-body and string stays (csvparse, jsonparse, xmlparse),
// nibble common chains (histogram16e), and halts into a stay state and into
// a common chain (haltProgram).
func fuzzKernels(t *testing.T) []*effclip.Image {
	fuzzImagesOnce.Do(func() {
		hist, err := histogram.BuildProgramEmit(histogram.UniformEdges(16, 0, 1))
		if err != nil {
			panic(err)
		}
		for _, p := range []*core.Program{echoProgram(), csvparse.BuildProgram(),
			jsonparse.BuildProgram(), xmlparse.BuildProgram(), hist, haltProgram()} {
			im, err := effclip.Layout(p, effclip.Options{})
			if err != nil {
				panic(err)
			}
			fuzzImages = append(fuzzImages, im)
		}
	})
	return fuzzImages
}

// FuzzCompiledRuns feeds random bytes through the run-skipping kernels under
// a random cycle budget and livelock window (0 selects the default) and
// requires the compiled tier to match the memory interpreter on everything
// observable, trap trace tail included.
func FuzzCompiledRuns(f *testing.F) {
	f.Add(uint8(0), uint32(0), uint16(0), []byte("hello, world"))
	f.Add(uint8(1), uint32(40), uint16(3), []byte("a,b,\"c,d\"\nxyz,,\"\"\"\"\n"))
	f.Add(uint8(2), uint32(0), uint16(1), []byte(`{"k": "v\"w", "n": [1, 2.5, true]}`+"\n"))
	f.Add(uint8(3), uint32(77), uint16(0), []byte(`<a b="1">t &amp; u</a>`+"\n"))
	f.Add(uint8(4), uint32(100), uint16(2), histogram.KeyBytes([]float64{0.1, 0.55, -3, 2}))
	f.Add(uint8(5), uint32(0), uint16(0), []byte("ab!cd#ef"))
	f.Fuzz(func(t *testing.T, kernel uint8, budget uint32, window uint16, data []byte) {
		imgs := fuzzKernels(t)
		img := imgs[int(kernel)%len(imgs)]
		setup := func(l *machine.Lane) { l.SetLivelockWindow(uint64(window)) }
		ref := runBanks(t, img, 0, data, setup, machine.EngineInterp, uint64(budget))
		comp := runBanks(t, img, 0, data, setup, machine.EngineCompiled, uint64(budget))
		diffAgainst(t, "compiled", ref, comp)
	})
}
