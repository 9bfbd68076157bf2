package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/randx"
	"mcloud/internal/workload"
)

const (
	chunkSize = 512 << 10
	minSize   = 4 << 10  // mcsload's floor
	maxSize   = 16 << 20 // 32 chunks, mcsbench's file shape
	numUsers  = 64
	// dedupShare is the share of stores that re-upload content another
	// user already stored (mcsload's -dup default).
	dedupShare = 0.2
	// zipfExponent is the popularity skew core.CacheStudyConfig uses for
	// the paper's §3.1.4 cache what-if.
	zipfExponent = 1.1
)

// spec is one workload's fixed shape. Rates were calibrated once with
// -calibrate on a 2-CPU host (closed-loop capacity: paper_mix 38 ops/s,
// cluster_mix 24, read_zipf 26) to about half of it. paper_mix runs at
// cluster_mix's rate so the two offer the same traffic.
type spec struct {
	name    string
	cluster bool    // 4 replicated storage nodes + 2-shard metadata plane
	cacheMB int     // read-path CachedStore size (0: none)
	mix     bool    // paper mix: stores:retrieves 2:1, 20% dedup
	rate    float64 // Poisson arrivals, operations per second
	// corpusMinBytes, when set, sizes the retrieve corpus to hold at
	// least this many unique bytes (else one file per two retrievals).
	corpusMinBytes int64
	// closed runs the window closed-loop (calibration): each operation
	// is due when the previous one completes.
	closed bool
}

var specs = map[string]spec{
	"paper_mix":   {name: "paper_mix", mix: true, rate: 6},
	"read_zipf":   {name: "read_zipf", cacheMB: 64, rate: 8, corpusMinBytes: 8 * 64 << 20},
	"cluster_mix": {name: "cluster_mix", cluster: true, mix: true, rate: 6},
}

// mixtureQuantile inverts the exponential-mixture CDF (means in MB) at
// u, in bytes, clamped to [minSize, maxSize].
func mixtureQuantile(alphas, mus []float64, u float64) int {
	cdf := func(x float64) float64 {
		c := 0.0
		for i, a := range alphas {
			c += a * (1 - math.Exp(-x/mus[i]))
		}
		return c
	}
	lo, hi := 0.0, 16*mus[len(mus)-1]
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	b := int(lo * (1 << 20))
	return min(max(b, minSize), maxSize)
}

// stratifiedSizes returns n sizes at the midpoints of n
// equal-probability strata of the mixture, in seeded order. Every seed
// offers the same sizes; the seed decides which operation gets which.
// Drawn sizes would move each run's percentiles with the draw: the
// retrieve mixture is bimodal (small files against 16 MB clamped ones)
// and its median falls in the gap between the modes.
func stratifiedSizes(src *randx.Source, alphas, mus []float64, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = mixtureQuantile(alphas, mus, (float64(i)+0.5)/float64(n))
	}
	src.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// --- payloads ------------------------------------------------------------

// pool is the seeded byte pool every payload is copied from. Each
// payload starts at its own offset and carries a unique 16-byte stamp
// at the head of every 512 KB chunk, so no two files or chunks share
// content by accident while building one costs a memcpy.
type pool struct {
	data []byte
	seed uint64
}

const poolSlack = 64 << 10

func newPool(seed uint64) *pool {
	src := randx.New(seed ^ 0x9e3779b97f4a7c15)
	b := make([]byte, maxSize+poolSlack)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], src.Uint64())
	}
	return &pool{data: b, seed: seed}
}

// file identifies one piece of content.
type file struct {
	id   int
	size int
}

func (p *pool) base(f file) int { return (f.id * 4099 * 16) % poolSlack }

func (p *pool) stamp(f file, chunk int) [16]byte {
	var s [16]byte
	binary.LittleEndian.PutUint64(s[:8], uint64(f.id)<<16|uint64(chunk))
	binary.LittleEndian.PutUint64(s[8:], p.seed)
	return s
}

// fill writes f's content into buf (which must hold f.size bytes).
func (p *pool) fill(buf []byte, f file) []byte {
	buf = buf[:f.size]
	copy(buf, p.data[p.base(f):])
	for c := 0; c*chunkSize < f.size; c++ {
		s := p.stamp(f, c)
		copy(buf[c*chunkSize:], s[:])
	}
	return buf
}

// matches reports whether got is exactly f's content, without
// building a copy of it.
func (p *pool) matches(got []byte, f file) bool {
	if len(got) != f.size {
		return false
	}
	b := p.base(f)
	for off := 0; off < f.size; off += chunkSize {
		end := min(off+chunkSize, f.size)
		s := p.stamp(f, off/chunkSize)
		n := min(16, end-off)
		if string(got[off:off+n]) != string(s[:n]) {
			return false
		}
		if string(got[off+n:end]) != string(p.data[b+off+n:b+end]) {
			return false
		}
	}
	return true
}

// --- schedule --------------------------------------------------------------

type opKind int

const (
	opStore opKind = iota
	opDedup
	opRetrieve
)

func (k opKind) String() string {
	return [...]string{"store", "dedup", "retrieve"}[k]
}

// op is one scheduled file operation.
type op struct {
	due  time.Duration // offset from the window start
	kind opKind
	user int
	file int // index into plan.files
}

// plan is a run's inputs, all derived from the seed: the corpus stored
// during setup, the open-loop window schedule and the content of every
// file.
type plan struct {
	files  []file
	corpus []op // closed-loop stores (and re-uploads) during setup
	window []op // open-loop operations
}

// shardOf maps a user onto the 2-shard metadata plane. Dedup re-uploads
// pick a source on the same shard as the uploader in every workload,
// so the catalog can find it on cluster_mix and the traffic matches.
var shardOf = func() func(user int) int {
	m, err := cluster.NewMetaShardMap(1, [][]string{{"a"}, {"b"}})
	if err != nil {
		panic(err)
	}
	return func(user int) int { return m.ShardFor(userID(user)) }
}()

// userID maps a user index to its service user id (ids start at 1).
func userID(u int) uint64 { return uint64(u + 1) }

func newPlan(sp spec, seed uint64, window time.Duration) *plan {
	src := randx.New(seed)
	p := &plan{}
	addFile := func(size int) int {
		p.files = append(p.files, file{id: len(p.files) + 1, size: size})
		return len(p.files) - 1
	}
	setupStore := func(size int) (f, user int) {
		f, user = addFile(size), src.Intn(numUsers)
		p.corpus = append(p.corpus, op{kind: opStore, user: user, file: f})
		return f, user
	}
	// A re-upload comes from a different user on the same metadata
	// shard as the original's owner, so the catalog can find it on
	// cluster_mix too and every workload offers the same traffic.
	reupload := func(f, owner int) op {
		for {
			if u := src.Intn(numUsers); u != owner && shardOf(u) == shardOf(owner) {
				return op{kind: opDedup, user: u, file: f}
			}
		}
	}

	// Window: a Poisson process conditioned on its count, so every seed
	// offers the same number of each operation.
	n := int(math.Round(sp.rate * window.Seconds()))
	nStore, nDedup := 0, 0
	if sp.mix {
		nStore = int(math.Round(float64(n) * 2 / 3))
		nDedup = int(math.Round(dedupShare * float64(nStore)))
	}
	nRetrieve := n - nStore

	// Corpus: retrieve-mixture sizes, stored during setup. The mix
	// workloads read each corpus file twice, so every seed retrieves
	// the same sizes; read_zipf's corpus is sized against the cache.
	nCorpus := (nRetrieve + 1) / 2
	if sp.corpusMinBytes > 0 {
		for nCorpus = 8; ; nCorpus++ {
			var total int64
			for i := 0; i < nCorpus; i++ {
				total += int64(mixtureQuantile(workload.RetrieveSizeAlphas, workload.RetrieveSizeMus, (float64(i)+0.5)/float64(nCorpus)))
			}
			if total >= sp.corpusMinBytes {
				break
			}
		}
	}
	var corpus []int
	owner := map[int]int{}
	for _, size := range stratifiedSizes(src, workload.RetrieveSizeAlphas, workload.RetrieveSizeMus, nCorpus) {
		f, u := setupStore(size)
		corpus = append(corpus, f)
		owner[f] = u
	}
	bySize := append([]int(nil), corpus...)
	sort.SliceStable(bySize, func(i, j int) bool { return p.files[bySize[i]].size < p.files[bySize[j]].size })

	dues := make([]float64, n)
	for i := range dues {
		dues[i] = src.Float64() * window.Seconds()
	}
	sort.Float64s(dues)
	kinds := make([]opKind, n)
	for i := range kinds {
		switch {
		case i < nStore-nDedup:
			kinds[i] = opStore
		case i < nStore:
			kinds[i] = opDedup
		default:
			kinds[i] = opRetrieve
		}
	}
	src.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// Re-uploads: on the mix workloads each window re-upload repeats a
	// store-mixture file another user stored during setup; read_zipf
	// re-uploads a fifth of its corpus during setup (sources spread
	// evenly over the sizes), so its store-side figures cover dedup too.
	var dedups []op
	if sp.mix {
		for _, size := range stratifiedSizes(src, workload.StoreSizeAlphas, workload.StoreSizeMus, nDedup) {
			f, u := setupStore(size)
			dedups = append(dedups, reupload(f, u))
		}
	} else {
		k := int(math.Round(dedupShare * float64(nCorpus) / (1 - dedupShare)))
		for i := 0; i < k; i++ {
			f := bySize[(2*i+1)*len(bySize)/(2*k)]
			p.corpus = append(p.corpus, reupload(f, owner[f]))
		}
	}

	storeSizes := stratifiedSizes(src, workload.StoreSizeAlphas, workload.StoreSizeMus, nStore-nDedup)
	retrieves := retrieveOrder(src, sp, corpus, bySize, nRetrieve)
	for i, k := range kinds {
		o := op{due: time.Duration(dues[i] * float64(time.Second)), kind: k, user: src.Intn(numUsers)}
		switch k {
		case opStore:
			o.file, storeSizes = addFile(storeSizes[0]), storeSizes[1:]
		case opDedup:
			o, dedups = dedups[0], dedups[1:]
			o.due = time.Duration(dues[i] * float64(time.Second))
		case opRetrieve:
			o.file, retrieves = retrieves[0], retrieves[1:]
		}
		p.window = append(p.window, o)
	}
	return p
}

// retrieveOrder lists the corpus files the window's n retrievals read.
// The paper mix reads seeded permutations of the corpus back to back,
// so every file is read equally often; read_zipf gives rank r a
// request count proportional to r^-1.1. Ranks are dealt across the
// size-sorted corpus in a fixed golden-ratio stride, so the hot set
// mixes small and large files the same way on every seed.
func retrieveOrder(src *randx.Source, sp spec, corpus, bySize []int, n int) []int {
	out := make([]int, 0, n)
	if sp.mix {
		for len(out) < n {
			for _, i := range src.Perm(len(corpus)) {
				out = append(out, corpus[i])
			}
		}
		return out[:n]
	}
	m := len(bySize)
	stride := int(math.Round(float64(m) * 0.618))
	for gcd(stride, m) != 1 {
		stride++
	}
	weights := make([]float64, m)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -zipfExponent)
		total += weights[r]
	}
	for r, c := range apportion(weights, total, n) {
		f := bySize[(r*stride)%m]
		for i := 0; i < c; i++ {
			out = append(out, f)
		}
	}
	src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// apportion splits n into integer counts proportional to weights
// (largest remainder).
func apportion(weights []float64, total float64, n int) []int {
	counts := make([]int, len(weights))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(weights))
	left := n
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for i := 0; i < left; i++ {
		counts[rems[i].i]++
	}
	return counts
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// chunks is the number of 512 KB chunks a file of size bytes splits into.
func chunks(size int) int { return (size + chunkSize - 1) / chunkSize }

// describe summarises a plan for the run header.
func (p *plan) describe() string {
	count := map[opKind]int{}
	var bytes int64
	for _, o := range p.window {
		count[o.kind]++
		bytes += int64(p.files[o.file].size)
	}
	var corpusBytes int64
	for _, o := range p.corpus {
		if o.kind == opStore {
			corpusBytes += int64(p.files[o.file].size)
		}
	}
	return fmt.Sprintf("window %d stores, %d dedups, %d retrieves (%.1f MB offered); corpus %d ops, %.1f MB unique",
		count[opStore], count[opDedup], count[opRetrieve], float64(bytes)/(1<<20), len(p.corpus), float64(corpusBytes)/(1<<20))
}
