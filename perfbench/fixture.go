package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ebsn"
	"ebsn/internal/par"
	"ebsn/internal/vecmath"
)

// fixtureSources are the source files whose code decides the fixture's
// bytes: generation, filtering/CSV, training, the facade that wires them
// and this file, which builds the oracle space. The fixture cache key
// hashes their non-test sources, so a change to any of them builds a
// fresh fixture instead of silently reusing a stale one.
var fixtureSources = []string{
	"*.go", "internal/alias/*.go", "internal/core/*.go", "internal/datagen/*.go",
	"internal/ebsnet/*.go", "internal/geo/*.go", "internal/graph/*.go", "internal/isort/*.go",
	"internal/par/*.go", "internal/rng/*.go", "internal/text/*.go", "internal/timeslot/*.go",
	"internal/vecmath/*.go", "perfbench/fixture.go",
}

// fixtureK is the embedding dimension, the paper's K.
const fixtureK = 60

// fixtureMeta is written next to a built fixture and copied into every
// result, so a number is never separated from the model it was measured
// on.
type fixtureMeta struct {
	Preset       string  `json:"preset"`
	Seed         uint64  `json:"seed"`
	Steps        int64   `json:"train_steps"`
	K            int     `json:"k"`
	TrainThreads int     `json:"train_threads"`
	SourceHash   string  `json:"source_sha256"`
	Users        int     `json:"users"`
	TestEvents   int     `json:"test_events"`
	PruneK       int     `json:"prune_k"`
	GenerateS    float64 `json:"generate_s"`
	TrainS       float64 `json:"train_s"`
}

// sourceHash digests the non-test Go files matching patterns (relative
// to root) in a fixed order.
func sourceHash(root string, patterns []string) (string, error) {
	h := sha256.New()
	for _, p := range patterns {
		files, err := filepath.Glob(filepath.Join(root, p))
		if err != nil {
			return "", err
		}
		sort.Strings(files)
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				return "", err
			}
			rel, _ := filepath.Rel(root, f)
			fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fixtureDir returns the cache directory for the fixture of the given
// seed, step budget and dimension at the current sources.
func fixtureDir(o *options) (string, string, error) {
	src, err := sourceHash(o.root, fixtureSources)
	if err != nil {
		return "", "", fmt.Errorf("hash fixture sources: %w", err)
	}
	key := sha256.Sum256([]byte(fmt.Sprintf("beijing|%d|%d|%d|%s", o.fixtureSeed, o.fixtureSteps, fixtureK, src)))
	return filepath.Join(o.work, "fixtures", hex.EncodeToString(key[:8])), src, nil
}

// ensureFixture returns the directory of a built fixture, building it
// first in a child process when the cache has none. The build is never
// timed and never shares the measured process's heap.
func ensureFixture(o *options) (string, fixtureMeta, error) {
	dir, src, err := fixtureDir(o)
	if err != nil {
		return "", fixtureMeta{}, err
	}
	if meta, err := readMeta(dir); err == nil {
		return dir, meta, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", fixtureMeta{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: building fixture %s (untimed)\n", dir)
	cmd := exec.Command(exe, "fixture",
		"--out", dir,
		"--fixture-seed", strconv.FormatUint(o.fixtureSeed, 10),
		"--fixture-steps", strconv.FormatInt(o.fixtureSteps, 10),
		"--source-hash", src)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fixtureMeta{}, fmt.Errorf("fixture build: %w", err)
	}
	meta, err := readMeta(dir)
	if err != nil {
		return "", fixtureMeta{}, fmt.Errorf("fixture build left no metadata: %w", err)
	}
	return dir, meta, nil
}

func readMeta(dir string) (fixtureMeta, error) {
	var m fixtureMeta
	b, err := os.ReadFile(filepath.Join(dir, "fixture.json"))
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}

// buildFixture is the `fixture` subcommand: generate the Beijing preset,
// train single-threaded (deterministic) for the step budget, save the
// ebsn-train directory layout, then derive the oracle's candidate space
// from the saved files exactly as a server opening them sees them. It
// writes into a temporary directory and renames it into place, so an
// interrupted build never leaves a half fixture behind.
func buildFixture(args []string) error {
	fs := newFlagSet("fixture")
	out := fs.String("out", "", "fixture directory to create")
	seed := fs.Uint64("fixture-seed", 11, "generation and training seed")
	steps := fs.Int64("fixture-steps", 2_000_000, "training step budget")
	src := fs.String("source-hash", "", "source digest recorded in the metadata")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("fixture: --out is required")
	}
	tmp := fmt.Sprintf("%s.tmp-%d", *out, os.Getpid())
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	meta := fixtureMeta{Preset: "beijing", Seed: *seed, Steps: *steps, K: fixtureK, TrainThreads: 1, SourceHash: *src}
	t0 := time.Now()
	d, err := ebsn.GenerateDataset(ebsn.GeneratorConfigFor(ebsn.CityBeijing, *seed))
	if err != nil {
		return err
	}
	rec, err := ebsn.Assemble(d, ebsn.Config{Seed: *seed, K: fixtureK, TrainSteps: *steps, Threads: 1})
	if err != nil {
		return err
	}
	meta.GenerateS = time.Since(t0).Seconds()
	t1 := time.Now()
	rec.Model().TrainSteps(rec.Model().Cfg.TotalSteps)
	meta.TrainS = time.Since(t1).Seconds()
	if err := ebsn.SaveDatasetCSV(rec.Dataset(), filepath.Join(tmp, "dataset")); err != nil {
		return err
	}
	if err := rec.SaveModel(filepath.Join(tmp, "model.gob")); err != nil {
		return err
	}
	rec = nil
	runtime.GC()

	// The oracle space is derived from the directory as saved, through
	// the same Open a server uses, so it covers exactly the users and
	// test events the server will serve.
	served, err := ebsn.Open(tmp, ebsn.Config{Threads: 1})
	if err != nil {
		return err
	}
	sp := newSpace(served)
	meta.Users, meta.TestEvents, meta.PruneK = sp.users, len(sp.events), sp.pruneK
	if err := sp.save(filepath.Join(tmp, "oracle.bin")); err != nil {
		return err
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "fixture.json"), mb, 0o644); err != nil {
		return err
	}
	if err := os.RemoveAll(*out); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: fixture built: %d users, %d test events, pruneK %d (generate %.1fs, train %.1fs)\n",
		meta.Users, meta.TestEvents, meta.PruneK, meta.GenerateS, meta.TrainS)
	return os.Rename(tmp, *out)
}

// space is the oracle's own copy of the pruned joint candidate space:
// for every partner, its pruneK highest-preference test events (by
// u'·x, the rule the paper's Section IV pruning and ta.BuildCandidates
// apply), the cross term of each pair, and the partner's pruneK-th
// preference score — the membership boundary, kept so a pair the
// server kept on an exact tie at that boundary is still recognized.
type space struct {
	users  int
	pruneK int
	events []int32   // test event IDs, candidate order
	evIdx  []uint16  // users*pruneK, ascending per partner
	cross  []float32 // users*pruneK
	kth    []float32 // users
}

// newSpace prunes the candidate space with the benchmark's own scan.
func newSpace(rec *ebsn.Recommender) *space {
	test := rec.Split().TestEvents
	pk := len(test) / 20 // the serve default: 5% of the test events
	if pk < 1 {
		pk = 1
	}
	nu := rec.Dataset().NumUsers
	m := rec.Model()
	sp := &space{users: nu, pruneK: pk, events: test,
		evIdx: make([]uint16, nu*pk), cross: make([]float32, nu*pk), kth: make([]float32, nu)}
	evs := make([][]float32, len(test))
	for i, x := range test {
		evs[i] = m.EventVec(x)
	}
	par.Chunks(nu, runtime.GOMAXPROCS(0), func(lo, hi int) {
		var h prefHeap
		for u := lo; u < hi; u++ {
			pv := m.UserVec(int32(u))
			h = h[:0]
			for i, ev := range evs {
				h.offer(pref{vecmath.Dot(pv, ev), i}, pk)
			}
			sp.kth[u] = h[0].s
			keep := make([]int, len(h))
			for j, e := range h {
				keep[j] = e.x
			}
			sort.Ints(keep)
			for j, x := range keep {
				sp.evIdx[u*pk+j] = uint16(x)
				sp.cross[u*pk+j] = vecmath.Dot(pv, evs[x])
			}
		}
	})
	return sp
}

// pref is one (preference score, index) candidate of a top-k selection.
type pref struct {
	s float32
	x int
}

// worse orders prefs for selection: lower score first, and on equal
// scores the later index, so ties keep the earliest indices.
func (a pref) worse(b pref) bool {
	if a.s != b.s {
		return a.s < b.s
	}
	return a.x > b.x
}

// prefHeap is a min-heap under worse: its root is the weakest kept
// candidate.
type prefHeap []pref

// offer keeps p if fewer than k candidates are held or p beats the
// weakest one.
func (h *prefHeap) offer(p pref, k int) {
	if len(*h) < k {
		*h = append(*h, p)
		for i := len(*h) - 1; i > 0; {
			up := (i - 1) / 2
			if !(*h)[i].worse((*h)[up]) {
				break
			}
			(*h)[i], (*h)[up] = (*h)[up], (*h)[i]
			i = up
		}
		return
	}
	if !(*h)[0].worse(p) {
		return
	}
	(*h)[0] = p
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(*h) && (*h)[l].worse((*h)[m]) {
			m = l
		}
		if r < len(*h) && (*h)[r].worse((*h)[m]) {
			m = r
		}
		if m == i {
			return
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
}

const spaceMagic = "PBSPACE1"

func (sp *space) save(path string) error {
	if len(sp.events) > 1<<16 {
		return fmt.Errorf("oracle space: %d test events exceed the 16-bit index", len(sp.events))
	}
	b := make([]byte, 0, 8+12+4*len(sp.events)+6*len(sp.evIdx)+4*sp.users)
	b = append(b, spaceMagic...)
	b = binary.LittleEndian.AppendUint32(b, uint32(sp.users))
	b = binary.LittleEndian.AppendUint32(b, uint32(sp.pruneK))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(sp.events)))
	for _, x := range sp.events {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	for _, x := range sp.evIdx {
		b = binary.LittleEndian.AppendUint16(b, x)
	}
	for _, c := range sp.cross {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(c))
	}
	for _, c := range sp.kth {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(c))
	}
	return os.WriteFile(path, b, 0o644)
}

func loadSpace(path string) (*space, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	if len(b) < 20 || string(b[:8]) != spaceMagic {
		return nil, fmt.Errorf("oracle space %s: bad header", path)
	}
	le := binary.LittleEndian
	sp := &space{users: int(le.Uint32(b[8:])), pruneK: int(le.Uint32(b[12:]))}
	ne := int(le.Uint32(b[16:]))
	n := sp.users * sp.pruneK
	if want := 20 + 4*ne + 6*n + 4*sp.users; len(b) != want {
		return nil, fmt.Errorf("oracle space %s: %d bytes, want %d", path, len(b), want)
	}
	p := b[20:]
	sp.events = make([]int32, ne)
	for i := range sp.events {
		sp.events[i] = int32(le.Uint32(p[4*i:]))
	}
	p = p[4*ne:]
	sp.evIdx = make([]uint16, n)
	for i := range sp.evIdx {
		sp.evIdx[i] = le.Uint16(p[2*i:])
	}
	p = p[2*n:]
	sp.cross = make([]float32, n)
	for i := range sp.cross {
		sp.cross[i] = math.Float32frombits(le.Uint32(p[4*i:]))
	}
	p = p[4*n:]
	sp.kth = make([]float32, sp.users)
	for i := range sp.kth {
		sp.kth[i] = math.Float32frombits(le.Uint32(p[4*i:]))
	}
	return sp, nil
}
