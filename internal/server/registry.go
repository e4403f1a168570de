// Program registry: the server side of the paper's "compile once, run on
// every record" contract. Built-in kernels are compiled lazily on first use
// and pinned; programs POSTed as UDP assembly are compiled eagerly, cached
// by content hash, and bounded by an LRU so a stream of one-off programs
// cannot grow the cache without limit (in the spirit of AIStore's ETL
// registry, which keys transformers by spec and reuses warm instances).
package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"udp"
	"udp/internal/builtins"
)

// DefaultCachePrograms bounds the POSTed-program cache when Options leaves
// it zero.
const DefaultCachePrograms = 64

// Program is one registry entry: a named UDP program compiled at most once.
type Program struct {
	// ID addresses the program in /v1/transform/{id}: the built-in name,
	// or "sha256:<hex>" for POSTed assembly.
	ID string
	// Name is the human-readable program name.
	Name string
	// Builtin marks the pinned kernels (never evicted).
	Builtin bool
	// Chunk is how transform requests are sharded for this program.
	Chunk builtins.ChunkSpec

	mu       sync.Mutex
	compiled bool
	compile  func() (*udp.Image, error)
	img      *udp.Image
	err      error
}

// Image returns the compiled image, compiling on first use.
func (p *Program) Image() (*udp.Image, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.compiled {
		p.img, p.err = p.compile()
		p.compile = nil
		p.compiled = true
	}
	return p.img, p.err
}

// imageIfCompiled reads the image without forcing lazy compilation.
func (p *Program) imageIfCompiled() *udp.Image {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.img
}

// Info is the JSON shape of a registry entry.
type Info struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Builtin bool   `json:"builtin"`
	// MaxLanes is the lane-parallelism limit of the compiled image (0
	// until a lazy built-in first compiles).
	MaxLanes int `json:"max_lanes,omitempty"`
}

// Registry holds the built-in kernels plus an LRU-bounded cache of POSTed
// programs.
type Registry struct {
	mu        sync.Mutex
	builtins  map[string]*Program
	posted    map[string]*list.Element // ID -> element whose Value is *Program
	order     *list.List               // front = most recently used
	cap       int
	evictions uint64
}

// NewRegistry builds a registry with the built-in kernels registered and
// room for capacity POSTed programs (DefaultCachePrograms when <= 0).
func NewRegistry(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultCachePrograms
	}
	r := &Registry{
		builtins: make(map[string]*Program),
		posted:   make(map[string]*list.Element),
		order:    list.New(),
		cap:      capacity,
	}
	for _, b := range builtins.All() {
		r.builtins[b.Name] = &Program{
			ID: b.Name, Name: b.Name, Builtin: true, Chunk: b.Chunk,
			compile: func() (*udp.Image, error) { return udp.Compile(b.Build()) },
		}
	}
	return r
}

// Lookup resolves a transform target: a built-in name or a POSTed ID. A hit
// on a POSTed program refreshes its LRU position.
func (r *Registry) Lookup(id string) (*Program, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.builtins[id]; ok {
		return p, true
	}
	if el, ok := r.posted[id]; ok {
		r.order.MoveToFront(el)
		return el.Value.(*Program), true
	}
	return nil, false
}

// Register compiles UDP assembly and caches the image keyed by content
// hash. Re-POSTing identical assembly returns the cached entry (cached =
// true) without recompiling. The least recently used entry is evicted when
// the cache is full.
func (r *Registry) Register(asmText []byte, name string, spec builtins.ChunkSpec) (p *Program, cached bool, err error) {
	sum := sha256.Sum256(asmText)
	id := "sha256:" + hex.EncodeToString(sum[:16])

	r.mu.Lock()
	if el, ok := r.posted[id]; ok {
		r.order.MoveToFront(el)
		r.mu.Unlock()
		return el.Value.(*Program), true, nil
	}
	r.mu.Unlock()

	// Compile outside the lock: assembly from the network is untrusted
	// and compilation is the slow path.
	prog, err := udp.ParseAssembly(string(asmText))
	if err != nil {
		return nil, false, fmt.Errorf("parse: %w", err)
	}
	img, err := udp.Compile(prog)
	if err != nil {
		return nil, false, fmt.Errorf("compile: %w", err)
	}
	if name == "" {
		name = prog.Name
	}
	p = &Program{ID: id, Name: name, Chunk: spec, img: img, compiled: true}

	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.posted[id]; ok { // lost a race: keep the first entry
		r.order.MoveToFront(el)
		return el.Value.(*Program), true, nil
	}
	r.posted[id] = r.order.PushFront(p)
	for r.order.Len() > r.cap {
		last := r.order.Back()
		r.order.Remove(last)
		delete(r.posted, last.Value.(*Program).ID)
		r.evictions++
	}
	return p, false, nil
}

// List snapshots every entry, built-ins first, each group sorted by ID.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	var builtins, posted []Info
	for _, p := range r.builtins {
		builtins = append(builtins, infoOf(p))
	}
	for el := r.order.Front(); el != nil; el = el.Next() {
		posted = append(posted, infoOf(el.Value.(*Program)))
	}
	sort.Slice(builtins, func(i, j int) bool { return builtins[i].ID < builtins[j].ID })
	sort.Slice(posted, func(i, j int) bool { return posted[i].ID < posted[j].ID })
	return append(builtins, posted...)
}

func infoOf(p *Program) Info {
	info := Info{ID: p.ID, Name: p.Name, Builtin: p.Builtin}
	if img := p.imageIfCompiled(); img != nil {
		info.MaxLanes = udp.MaxLanes(img)
	}
	return info
}

// Counts reports cache occupancy and lifetime evictions for /metrics.
func (r *Registry) Counts() (builtins, posted int, evictions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.builtins), r.order.Len(), r.evictions
}
