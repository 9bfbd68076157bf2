package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/storage"
)

// sample is one timed file operation.
type sample struct {
	kind     opKind
	bytes    int64
	due      time.Time // when the operation was due (start, for setup ops)
	dispatch time.Time
	done     time.Time
	lag      time.Duration // timer lateness when the generator was idle
	reqs     int64         // HTTP requests the operation sent
	err      error
	span     uint64 // operation span in a traced phase
}

func (s sample) latency() time.Duration   { return s.done.Sub(s.due) }
func (s sample) queueWait() time.Duration { return s.dispatch.Sub(s.due) }

// ack is one acknowledged file, checked byte for byte after the window.
type ack struct {
	url string
	f   file
}

// errCorrupt marks a correctness failure: a lost or corrupted file, or
// a store that did not deduplicate when it should have. It fails the
// run instead of counting as an operation error.
var errCorrupt = errors.New("correctness")

// phase is one deployment's run: set-up, corpus, window, verification.
type phase struct {
	sp      spec
	window  time.Duration
	rec     *recorder
	pl      *pool
	plan    *plan
	setups  []time.Duration
	d       *deployment
	urls    []string
	acks    []ack
	buf     []byte
	corpus  []sample
	samples []sample
	start   time.Time // window start
	end     time.Time // last completion

	cpu         time.Duration
	gc          gcDelta
	diskD       storage.DiskStats
	putsD       int64
	walD        storage.MetaWALStats
	cacheD      storage.CacheStats
	retries     storage.ClientRetryStats
	under       int
	diskBytes   int64
	reopens     []time.Duration
	spans       []span // spans of the store phase and window (traced)
	timeReopen  bool
	streamReads int64            // zero-copy reads during the window
	routes      map[string]int64 // the users' requests during the window, by route
	replicaPuts int64            // replica sub-requests served during the window
	replicaGets int64
	steps       map[string]time.Duration // wall time of each step of the run
	codecMD5    float64
	codecSpl    float64
}

// runPhase deploys the workload (keeping the last of its timed set-up
// rounds), loads the corpus, drives the window and verifies every
// acknowledged file.
//
// The end-to-end run repeats set-up and times reopening the closed
// directories; the two passes of a traced run do neither.
func runPhase(sp spec, seed uint64, window time.Duration, dir string, rec *recorder, timed bool) (ph *phase, err error) {
	ph = &phase{sp: sp, window: window, rec: rec, pl: newPool(seed), plan: newPlan(sp, seed, window), timeReopen: timed}
	ph.buf = make([]byte, maxSize)
	ph.urls = make([]string, len(ph.plan.files))
	ph.steps = map[string]time.Duration{}
	step := func(name string, start time.Time) { ph.steps[name] += time.Since(start) }
	t0 := time.Now()
	for k := 0; ; k++ {
		sdir := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		start := time.Now()
		d, err := deploy(sp, sdir, rec)
		if err == nil {
			err = ph.warmup(d)
		}
		ph.setups = append(ph.setups, time.Since(start))
		if err != nil {
			d.close()
			return ph, fmt.Errorf("setup: %w", err)
		}
		if timed && moreRounds(ph.setups) {
			if err := d.close(); err != nil {
				return ph, err
			}
			if err := os.RemoveAll(sdir); err != nil {
				return ph, err
			}
			ph.acks = nil
			continue
		}
		ph.d = d
		break
	}
	step("setup", t0)
	defer func() {
		if ph.d != nil {
			if cerr := ph.d.close(); err == nil {
				err = cerr
			}
		}
	}()

	// Store-side counters and spans cover the phase where the workload
	// stores: read_zipf's corpus load, the mix workloads' window.
	t0 = time.Now()
	var before snap
	if !sp.mix {
		before = ph.snapshot()
		rec.reset()
	}
	for _, o := range ph.plan.corpus {
		now := time.Now()
		s := ph.do(o, now, now)
		if s.err != nil {
			return ph, fmt.Errorf("corpus %s: %w", o.kind, s.err)
		}
		ph.corpus = append(ph.corpus, s)
	}
	if sp.mix {
		before = ph.snapshot()
		rec.reset()
	}
	step("corpus", t0)
	t0 = time.Now()
	if err := ph.drive(); err != nil {
		return ph, err
	}
	step("window", t0)
	t0 = time.Now()
	ph.storeDeltas(before)
	if rec != nil {
		ph.spans = rec.snapshot()
	}
	ph.under = ph.d.underreplicated()
	ph.codec()

	// Correctness: every acknowledged file reads back byte-identical.
	if err := ph.d.drainRepairs(30 * time.Second); err != nil {
		return ph, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if ph.diskBytes, err = diskBytes(ph.d.dir); err != nil {
		return ph, err
	}
	step("repair", t0)
	t0 = time.Now()
	defer func() { step("verify", t0) }()
	if sp.mix && !sp.cluster {
		// paper_mix verifies through the node reopened from disk.
		if err := ph.restart(); err != nil {
			return ph, err
		}
		return ph, ph.verify()
	}
	if err := ph.verify(); err != nil {
		return ph, err
	}
	d := ph.d
	ph.d = nil
	if err := d.close(); err != nil {
		return ph, err
	}
	return ph, ph.timeReopens(d)
}

// restart closes the node, times reopening its directories and brings
// the service back up on them.
func (ph *phase) restart() error {
	d := ph.d
	ph.d = nil
	if err := d.close(); err != nil {
		return err
	}
	if err := ph.timeReopens(d); err != nil {
		return err
	}
	nd, err := deploy(ph.sp, d.dir, nil)
	if err != nil {
		return fmt.Errorf("%w: reopen: %v", errCorrupt, err)
	}
	ph.d = nd
	return nil
}

// Set-up and reopen are repeated until they have taken roundBudget
// (within [minRounds, maxRounds] rounds); their metrics are medians.
const (
	minRounds   = 3
	maxRounds   = 15
	roundBudget = 1500 * time.Millisecond
)

// moreRounds reports whether another timed round is due after done.
func moreRounds(done []time.Duration) bool {
	var total time.Duration
	for _, d := range done {
		total += d
	}
	return len(done) < minRounds || (len(done) < maxRounds && total < roundBudget)
}

func (ph *phase) timeReopens(d *deployment) error {
	if !ph.timeReopen {
		return nil
	}
	for moreRounds(ph.reopens) {
		took, err := reopen(d)
		if err != nil {
			return fmt.Errorf("%w: reopen: %v", errCorrupt, err)
		}
		ph.reopens = append(ph.reopens, took)
	}
	return nil
}

// warmup opens every user's connections, negotiates the dialect and
// fetches the shard map before timing starts: each user asks every node
// for a chunk stat (a client learns that a node speaks mcsbin/1 from
// file-operation and PUT responses, not from JSON chunk GETs) and reads
// back a probe file whose chunks have a different primary owner each.
func (ph *phase) warmup(d *deployment) error {
	probe, err := ph.probeFile(d, 1<<30)
	if err != nil {
		return err
	}
	probeData := ph.pl.fill(ph.buf, probe)
	probeChunk := storage.SplitSums(probeData)[0].String()
	probeRes, err := d.users[0].StoreFile("probe", probeData)
	if err != nil {
		return err
	}
	ph.acks = append(ph.acks, ack{probeRes.URL, probe})
	for _, c := range d.users {
		for _, n := range d.nodes {
			if _, err := c.StatChunks(n.url, []string{probeChunk}); err != nil {
				return err
			}
		}
		got, err := c.RetrieveFile(probeRes.URL)
		if err != nil {
			return err
		}
		if !ph.pl.matches(got, probe) {
			return fmt.Errorf("%w: warm-up probe corrupted", errCorrupt)
		}
	}
	return nil
}

// probeFile finds a file whose chunks' primary owners cover every node
// (one chunk on a single node).
func (ph *phase) probeFile(d *deployment, id int) (file, error) {
	if len(d.nodes) == 1 {
		return file{id: id, size: minSize}, nil
	}
	var peers []string
	for _, n := range d.nodes {
		peers = append(peers, n.url)
	}
	ring, err := cluster.NewRing(peers, 0)
	if err != nil {
		return file{}, err
	}
	for ; ; id += 1 << 20 {
		f := file{id: id, size: (len(peers)-1)*chunkSize + minSize}
		data := ph.pl.fill(ph.buf, f)
		seen := map[string]bool{}
		for _, s := range storage.SplitSums(data) {
			seen[ring.Primary(cluster.Key(s))] = true
		}
		if len(seen) == len(peers) {
			return f, nil
		}
	}
}

// do runs one operation and checks its outcome.
func (ph *phase) do(o op, due, dispatch time.Time) sample {
	f := ph.plan.files[o.file]
	c := ph.d.users[o.user]
	s := sample{kind: o.kind, bytes: int64(f.size), due: due, dispatch: dispatch}
	var data []byte
	if o.kind != opRetrieve {
		data = ph.pl.fill(ph.buf, f)
	}
	reqs := ph.d.reqs.Load()
	var opStart int64
	if ph.rec != nil {
		s.span = ph.rec.newID()
		ph.rec.cur.Store(s.span)
		opStart = ph.rec.now()
	}
	var res storage.StoreResult
	var got []byte
	var err error
	if o.kind == opRetrieve {
		got, err = c.RetrieveFile(ph.urls[o.file])
	} else {
		res, err = c.StoreFile(fmt.Sprintf("f%d", f.id), data)
	}
	s.done = time.Now()
	if ph.rec != nil {
		ph.rec.add(span{id: s.span, name: "client." + o.kind.String(), start: opStart, end: ph.rec.now(), bytes: s.bytes})
	}
	s.reqs = ph.d.reqs.Load() - reqs
	s.err = err
	if err != nil {
		return s
	}
	switch o.kind {
	case opStore:
		if res.Deduplicated {
			s.err = fmt.Errorf("%w: unique file %d deduplicated", errCorrupt, f.id)
		}
		ph.urls[o.file] = res.URL
		ph.acks = append(ph.acks, ack{res.URL, f})
	case opDedup:
		if !res.Deduplicated || res.URL != ph.urls[o.file] {
			s.err = fmt.Errorf("%w: re-upload of file %d not deduplicated (url %q, want %q)", errCorrupt, f.id, res.URL, ph.urls[o.file])
		}
	case opRetrieve:
		if !ph.pl.matches(got, f) {
			s.err = fmt.Errorf("%w: retrieve of file %d returned wrong bytes", errCorrupt, f.id)
		}
	}
	return s
}

// drive runs the open-loop window: operations are due at their
// scheduled offsets whatever the service does, one runs at a time, and
// each is timed from when it was due.
func (ph *phase) drive() error {
	before := ph.snapshot()
	ph.start = time.Now().Add(20 * time.Millisecond)
	for _, o := range ph.plan.window {
		due := ph.start.Add(o.due)
		if ph.sp.closed {
			due = time.Now()
		}
		var lag time.Duration
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
			lag = time.Since(due)
		}
		s := ph.do(o, due, time.Now())
		s.lag = lag
		if s.err != nil && errors.Is(s.err, errCorrupt) {
			return s.err
		}
		ph.samples = append(ph.samples, s)
	}
	ph.end = time.Now()
	after := ph.snapshot()
	ph.cpu = after.cpu - before.cpu
	ph.gc = after.gc.sub(before.gc)
	ph.cacheD = subCache(after.cache, before.cache)
	ph.retries = subRetry(after.retries, before.retries)
	ph.streamReads = after.disk.StreamReads - before.disk.StreamReads
	ph.routes = map[string]int64{}
	for r, n := range after.routes {
		ph.routes[r] = n - before.routes[r]
	}
	ph.replicaPuts = after.replicaPuts - before.replicaPuts
	ph.replicaGets = after.replicaGets - before.replicaGets
	return nil
}

// verify reads back every acknowledged file through the deployment,
// two files at a time (one per CPU of the calibration host).
func (ph *phase) verify() error {
	var urls []ack
	seen := map[string]bool{}
	for _, a := range ph.acks {
		if !seen[a.url] {
			seen[a.url] = true
			urls = append(urls, a)
		}
	}
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ph.d.users[w]
			for i := w; i < len(urls) && errs[w] == nil; i += workers {
				a := urls[i]
				got, err := c.RetrieveFile(a.url)
				switch {
				case err != nil:
					errs[w] = fmt.Errorf("%w: acknowledged file %d (%s) lost: %v", errCorrupt, a.f.id, a.url, err)
				case !ph.pl.matches(got, a.f):
					errs[w] = fmt.Errorf("%w: acknowledged file %d (%s) corrupted", errCorrupt, a.f.id, a.url)
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// uniqueBytes is the user bytes of every distinct acknowledged file.
func (ph *phase) uniqueBytes() int64 {
	var total int64
	seen := map[string]bool{}
	for _, a := range ph.acks {
		if !seen[a.url] {
			seen[a.url] = true
			total += int64(a.f.size)
		}
	}
	return total
}

// codec times the content hashing the client and front-end run, over
// the run's own payloads.
func (ph *phase) codec() {
	var total int64
	var md5T, splitT time.Duration
	for _, o := range ph.plan.window {
		if total >= 32<<20 {
			break
		}
		f := ph.plan.files[o.file]
		data := ph.pl.fill(ph.buf, f)
		t := time.Now()
		storage.SumBytes(data)
		md5T += time.Since(t)
		t = time.Now()
		storage.SplitSums(data)
		splitT += time.Since(t)
		total += int64(f.size)
	}
	mb := float64(total) / (1 << 20)
	ph.codecMD5 = mb / md5T.Seconds()
	ph.codecSpl = mb / splitT.Seconds()
}

// --- counters ------------------------------------------------------------

type snap struct {
	cpu                      time.Duration
	routes                   map[string]int64
	replicaPuts, replicaGets int64
	gc                       gcSnap
	disk                     storage.DiskStats
	puts                     int64
	wal                      storage.MetaWALStats
	cache                    storage.CacheStats
	retries                  storage.ClientRetryStats
}

func (ph *phase) snapshot() snap {
	s := snap{cpu: cpuTime(), gc: readGC(), cache: ph.d.cacheStats(), retries: ph.d.cm.Stats(), routes: ph.d.routes.snapshot()}
	s.disk, s.puts = ph.d.diskTotals()
	for _, n := range ph.d.nodes {
		s.replicaPuts += n.hs.replicaPut.Load()
		s.replicaGets += n.hs.replicaGet.Load()
	}
	s.wal = ph.d.walTotals()
	return s
}

// storeDeltas records the write-side counters over the store phase.
func (ph *phase) storeDeltas(before snap) {
	after := ph.snapshot()
	ph.diskD = storage.DiskStats{
		Fsyncs:      after.disk.Fsyncs - before.disk.Fsyncs,
		StreamReads: after.disk.StreamReads - before.disk.StreamReads,
		LiveBytes:   after.disk.LiveBytes + after.disk.DeadBytes - before.disk.LiveBytes - before.disk.DeadBytes,
	}
	ph.putsD = after.puts - before.puts
	ph.walD = storage.MetaWALStats{
		Fsyncs:      after.wal.Fsyncs - before.wal.Fsyncs,
		BytesLogged: after.wal.BytesLogged - before.wal.BytesLogged,
		Appends:     after.wal.Appends - before.wal.Appends,
	}
}

func subCache(a, b storage.CacheStats) storage.CacheStats {
	return storage.CacheStats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses,
		HitBytes: a.HitBytes - b.HitBytes, MissBytes: a.MissBytes - b.MissBytes,
		Evictions: a.Evictions - b.Evictions,
	}
}

func subRetry(a, b storage.ClientRetryStats) storage.ClientRetryStats {
	return storage.ClientRetryStats{
		Retries: a.Retries - b.Retries, Refetches: a.Refetches - b.Refetches,
		GiveUps: a.GiveUps - b.GiveUps, Resumes: a.Resumes - b.Resumes,
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// gcSnap is a reading of the Go runtime's allocation and GC counters.
type gcSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
	numGC           int64
	pauses          []time.Duration // most recent first
}

type gcDelta struct {
	allocBytes float64
	gcCPUFrac  float64
	pauseP99   time.Duration
}

var gcNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcSnap {
	ss := make([]metrics.Sample, len(gcNames))
	for i, n := range gcNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	g := gcSnap{}
	if ss[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = ss[2].Value.Float64()
	}
	// Exact pause durations (the runtime/metrics histogram is bucketed).
	var st debug.GCStats
	debug.ReadGCStats(&st)
	g.numGC, g.pauses = st.NumGC, st.Pause
	return g
}

func (a gcSnap) sub(b gcSnap) gcDelta {
	d := gcDelta{allocBytes: float64(a.allocBytes - b.allocBytes)}
	if cpu := a.totalCPU - b.totalCPU; cpu > 0 {
		d.gcCPUFrac = (a.gcCPU - b.gcCPU) / cpu
	}
	n := min(int(a.numGC-b.numGC), len(a.pauses))
	pauses := make([]float64, n)
	for i := range pauses {
		pauses[i] = float64(a.pauses[i])
	}
	d.pauseP99 = time.Duration(percentile(pauses, 99))
	return d
}
