package main

import (
	"math"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }

// opLatencies returns the latencies (ms) of successful samples of kind.
func opLatencies(ss []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range ss {
		if s.kind == kind && s.err == nil {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// storeSamples is where the workload's stores happen: the window for
// the mix workloads, the corpus load for read_zipf.
func (ph *phase) storeSamples() []sample {
	if ph.sp.mix {
		return ph.samples
	}
	return ph.corpus
}

// measured lists the samples of the measured phases: the window, and
// for read_zipf the corpus load before it.
func (ph *phase) measured() []sample {
	if ph.sp.mix {
		return ph.samples
	}
	return append(append([]sample(nil), ph.corpus...), ph.samples...)
}

// windowBytes is the user bytes of the window's successful operations.
func (ph *phase) windowBytes() int64 {
	var bytes int64
	for _, s := range ph.samples {
		if s.err == nil {
			bytes += s.bytes
		}
	}
	return bytes
}

// tails names the tail percentile behind each tail metric and its
// sample count.
type tail struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

// endToEnd computes the user-visible metrics of an untraced phase: the
// gated ones, and the ones printed but not gated. The latencies are
// fsync-bound and queue behind one another, and on a virtual machine
// with a shared disk the fsync speed drifts by a factor of two to three
// within minutes, so their run-to-run spread (0.3 to 0.6 of the median
// over ten runs) exceeds any bound the benchmark may set; reopen_s
// (0.29) follows the machine's speed too.
func (ph *phase) endToEnd(setupS float64) (metricSet, metricSet, map[string]tail) {
	m, lat := metricSet{}, metricSet{}
	tails := map[string]tail{}
	latency := func(name string, xs []float64, withTail bool) {
		lat.set(name+"_p50_ms", median(xs), "ms")
		if withTail {
			p := tailPercentile(len(xs))
			lat.set(name+"_tail_ms", percentile(xs, p), "ms")
			tails[name+"_tail_ms"] = tail{p, len(xs)}
		}
	}
	latency("store", opLatencies(ph.storeSamples(), opStore), true)
	latency("retrieve", opLatencies(ph.samples, opRetrieve), true)
	latency("dedup", opLatencies(ph.storeSamples(), opDedup), false)

	// Goodput runs to the last completion: near the window's length
	// while the service keeps up, longer once the generator falls
	// behind.
	bytes := ph.windowBytes()
	span := ph.end.Sub(ph.start)
	m.set("goodput_MBps", float64(bytes)/(1<<20)/span.Seconds(), "MB/s")
	m.set("cpu_s_per_GB", ph.cpu.Seconds()/(float64(bytes)/(1<<30)), "s/GB")
	m.set("disk_bytes_per_user_byte", float64(ph.diskBytes)/float64(ph.uniqueBytes()), "ratio")
	lat.set("reopen_s", median(durations(ph.reopens)), "s")
	m.set("rss_peak_MB", peakRSSMB(), "MB")
	m.set("setup_s", setupS, "s")
	return m, lat, tails
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// backlog counts the operations due but not yet started at a moment.
func (ph *phase) backlog(at time.Time) int {
	n := 0
	for _, s := range ph.samples {
		if !s.due.After(at) && s.dispatch.After(at) {
			n++
		}
	}
	return n
}

// backlogGrowing compares the backlog at mid-window and at the end.
// A queue at a stable load empties between busy periods, so a backlog
// above a tenth of the window's operations that is still rising at the
// end means the offered rate exceeded capacity.
func (ph *phase) backlogGrowing() (mid, end int, growing bool) {
	mid = ph.backlog(ph.start.Add(ph.window / 2))
	end = ph.backlog(ph.start.Add(ph.window))
	return mid, end, end > mid && end*10 > len(ph.samples)
}

// pathCounts are the per-operation counts that tell which code path a
// phase took; the traced and untraced phases must agree on them.
type pathCounts struct {
	reqsPerStore, reqsPerDedup, reqsPerRetrieve float64
	streamReadsPerChunk                         float64
	fsyncsPerPut                                float64
}

func (ph *phase) paths() pathCounts {
	reqs := map[opKind]float64{}
	n := map[opKind]float64{}
	var chunksRead float64
	for _, s := range ph.measured() {
		reqs[s.kind] += float64(s.reqs)
		n[s.kind]++
	}
	for _, s := range ph.samples {
		if s.kind == opRetrieve {
			chunksRead += float64(chunks(int(s.bytes)))
		}
	}
	pc := pathCounts{
		reqsPerStore:    reqs[opStore] / n[opStore],
		reqsPerDedup:    reqs[opDedup] / n[opDedup],
		reqsPerRetrieve: reqs[opRetrieve] / n[opRetrieve],
	}
	if chunksRead > 0 {
		pc.streamReadsPerChunk = float64(ph.streamReads) / chunksRead
	}
	if ph.putsD > 0 {
		pc.fsyncsPerPut = float64(ph.diskD.Fsyncs) / float64(ph.putsD)
	}
	return pc
}

// --- traced phase: per-layer metrics -------------------------------------

// view indexes a traced phase's spans by parent.
type view struct {
	spans []span
	kids  map[uint64][]int
	self  []int64
}

func newView(spans []span) *view {
	v := &view{spans: spans, kids: map[uint64][]int{}, self: make([]int64, len(spans))}
	for i, s := range spans {
		if s.parent != 0 {
			v.kids[s.parent] = append(v.kids[s.parent], i)
		}
	}
	for i, s := range spans {
		var ivs []interval
		for _, k := range v.kids[s.id] {
			ivs = append(ivs, spans[k].iv())
		}
		v.self[i] = selfTime(s.iv(), ivs)
	}
	return v
}

// each calls f for every span whose name is one of names.
func (v *view) each(f func(i int, s span), names ...string) {
	for i, s := range v.spans {
		for _, n := range names {
			if s.name == n {
				f(i, s)
				break
			}
		}
	}
}

func (v *view) durationsMS(names ...string) []float64 {
	var out []float64
	v.each(func(_ int, s span) { out = append(out, nsToMS(s.end-s.start)) }, names...)
	return out
}

func (v *view) selfNS(names ...string) (total int64, count int) {
	v.each(func(i int, _ span) { total += v.self[i]; count++ }, names...)
	return total, count
}

// blocking attributes every instant of span i's window [lo, hi) to
// exactly one span on the blocking path and reports it by span name:
// walking back from hi, the child that finished last is the one its
// parent was waiting for; time no child covers is the span's own.
// Overlapping children (a window of 2 chunk transfers) are therefore
// counted once, on the transfer that finished last.
func (v *view) blocking(i int, lo, hi int64, add func(name string, ns int64)) {
	own := hi - lo
	used := map[int]bool{}
	t := hi
	for t > lo {
		best, bestEnd := -1, int64(math.MinInt64)
		for _, k := range v.kids[v.spans[i].id] {
			c := v.spans[k]
			if used[k] || c.start >= t || c.end <= lo {
				continue
			}
			if e := min(c.end, t); e > bestEnd {
				best, bestEnd = k, e
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		from := max(v.spans[best].start, lo)
		own -= bestEnd - from
		v.blocking(best, from, bestEnd, add)
		t = v.spans[best].start
	}
	add(v.spans[i].name, own)
}

// layerOf maps a span name onto the layer it measures.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "rt":
		return "wire"
	case "fe":
		return "frontend"
	case "cs":
		return "chunkstore"
	case "repl":
		return "replicate"
	case "metasvc":
		return "meta"
	}
	return prefix
}

var (
	metaRoutes   = []string{"rt.store_check", "rt.resolve", "rt.commit", "rt.lookup", "rt.shards"}
	chunkPutRT   = []string{"rt.chunk_put", "rt.bin_put"}
	chunkGetRT   = []string{"rt.chunk_get", "rt.bin_get"}
	chunkPutFE   = []string{"fe.chunk_put", "fe.bin_put"}
	chunkGetFE   = []string{"fe.chunk_get", "fe.bin_get"}
	binRTRoutes  = map[string]bool{"rt.bin_put": true, "rt.bin_get": true, "rt.replica_bin_put": true, "rt.replica_bin_get": true}
	replicaStore = []string{"fe.replica_chunk_put", "fe.replica_bin_put"}
)

// perLayer computes the traced phase's layer metrics; untraced is the
// untraced phase of the same run, for the overhead and path checks.
func (ph *phase) perLayer(untraced *phase) (metricSet, metricSet) {
	v := newView(ph.spans)
	m := metricSet{}     // metrics every service workload reports
	extra := metricSet{} // metrics of layers only some deployments have

	var storeMB, retrMB float64
	var storeChunks, retrChunks float64
	var nStores int
	for _, s := range ph.storeSamples() {
		if s.kind == opStore && s.err == nil {
			storeMB += float64(s.bytes) / (1 << 20)
			storeChunks += float64(chunks(int(s.bytes)))
			nStores++
		}
	}
	for _, s := range ph.samples {
		if s.kind == opRetrieve && s.err == nil {
			retrMB += float64(s.bytes) / (1 << 20)
			retrChunks += float64(chunks(int(s.bytes)))
		}
	}
	userMB := storeMB + retrMB

	// loadgen
	var waits, lags []float64
	for _, s := range ph.samples {
		waits = append(waits, ms(s.queueWait()))
		if s.lag > 0 || s.queueWait() == s.lag {
			lags = append(lags, ms(s.lag))
		}
	}
	m.set("loadgen.queue_wait_p50_ms", median(waits), "ms")
	m.set("loadgen.sched_lag_p99_ms", percentile(lags, 99), "ms")

	// client
	self, _ := v.selfNS("client.store")
	m.set("client.store_self_ms_per_MB", nsToMS(self)/storeMB, "ms/MB")
	self, _ = v.selfNS("client.retrieve")
	m.set("client.retrieve_self_ms_per_MB", nsToMS(self)/retrMB, "ms/MB")
	pc := ph.paths()
	m.set("client.reqs_per_store", pc.reqsPerStore, "count")
	m.set("client.reqs_per_retrieve", pc.reqsPerRetrieve, "count")
	m.set("client.retries", float64(ph.retries.Retries), "count")
	m.set("client.refetches", float64(ph.retries.Refetches), "count")

	// wire
	self, n := v.selfNS(metaRoutes...)
	m.set("wire.meta_ms_per_req", nsToMS(self)/float64(max(n, 1)), "ms")
	self, _ = v.selfNS(chunkPutRT...)
	m.set("wire.chunk_put_ms_per_MB", nsToMS(self)/storeMB, "ms/MB")
	self, _ = v.selfNS(chunkGetRT...)
	m.set("wire.chunk_get_ms_per_MB", nsToMS(self)/retrMB, "ms/MB")
	var wireBytes, binBytes int64
	for _, s := range v.spans {
		if strings.HasPrefix(s.name, "rt.") {
			wireBytes += s.bytes
			if binRTRoutes[s.name] {
				binBytes += s.bytes
			}
		}
	}
	m.set("wire.bytes_per_user_byte", float64(wireBytes)/(userMB*(1<<20)), "ratio")
	m.set("wire.bin_byte_share", float64(binBytes)/float64(max(wireBytes, 1)), "ratio")

	// frontend
	self, _ = v.selfNS(chunkPutFE...)
	m.set("frontend.put_self_ms_per_MB", nsToMS(self)/storeMB, "ms/MB")
	self, _ = v.selfNS(chunkGetFE...)
	m.set("frontend.get_self_ms_per_MB", nsToMS(self)/retrMB, "ms/MB")
	m.set("frontend.op_store_ms_p50", median(v.durationsMS("fe.op_store")), "ms")
	m.set("frontend.op_retrieve_ms_p50", median(v.durationsMS("fe.op_retrieve")), "ms")

	// chunkstore
	puts := v.durationsMS("cs.put")
	m.set("chunkstore.put_ms_p50", median(puts), "ms")
	m.set("chunkstore.put_ms_p99", percentile(puts, 99), "ms")
	m.set("chunkstore.get_ms_p50", median(v.durationsMS("cs.get")), "ms")
	m.set("chunkstore.fsyncs_per_put", pc.fsyncsPerPut, "count")
	m.set("chunkstore.bytes_written_per_user_byte", float64(ph.diskD.LiveBytes)/(storeMB*(1<<20)), "ratio")
	m.set("chunkstore.stream_read_share", pc.streamReadsPerChunk, "ratio")

	// cache
	m.set("cache.hit_rate", ph.cacheD.HitRate(), "ratio")
	m.set("cache.byte_hit_rate", ph.cacheD.ByteHitRate(), "ratio")
	m.set("cache.evictions", float64(ph.cacheD.Evictions), "count")

	// meta
	m.set("meta.store_check_ms_p50", median(v.durationsMS("meta.store_check")), "ms")
	commits := v.durationsMS("metasvc.commit")
	if ph.sp.cluster {
		commits = v.durationsMS("meta.commit")
	}
	m.set("meta.commit_ms_p50", median(commits), "ms")
	m.set("meta.commit_ms_p99", percentile(commits, 99), "ms")
	m.set("meta.resolve_ms_p50", median(v.durationsMS("meta.resolve")), "ms")
	m.set("meta.wal_fsyncs_per_commit", float64(ph.walD.Fsyncs)/float64(max(nStores, 1)), "count")
	m.set("meta.wal_bytes_per_commit", float64(ph.walD.BytesLogged)/float64(max(nStores, 1)), "B")

	// replicate
	m.set("replicate.replica_reqs_per_chunk", float64(ph.replicaPuts)/max(storeChunks, 1), "count")
	m.set("replicate.forwarded_get_share", float64(ph.replicaGets)/max(retrChunks, 1), "ratio")
	m.set("replicate.underreplicated_end", float64(ph.under), "count")
	if ph.sp.cluster {
		extra.set("metaclient.commit_ms_p50", median(v.durationsMS("metaclient.commit")), "ms")
		extra.set("metaclient.lookup_ms_p50", median(v.durationsMS("metaclient.lookup")), "ms")
		rp := v.durationsMS("repl.put")
		extra.set("replicate.put_ms_p50", median(rp), "ms")
		extra.set("replicate.put_ms_p99", percentile(rp, 99), "ms")
		self, _ = v.selfNS("repl.put")
		extra.set("replicate.fanout_self_ms_per_MB", nsToMS(self)/storeMB, "ms/MB")
		self, _ = v.selfNS(replicaStore...)
		extra.set("replicate.replica_put_self_ms_per_MB", nsToMS(self)/storeMB, "ms/MB")
	}

	// codec and Go runtime
	m.set("codec.md5_MBps", ph.codecMD5, "MB/s")
	m.set("codec.splitsums_MBps", ph.codecSpl, "MB/s")
	m.set("go.alloc_MB_per_GB", ph.gc.allocBytes/(1<<20)/(float64(ph.windowBytes())/(1<<30)), "MB/GB")
	m.set("go.gc_cpu_frac", ph.gc.gcCPUFrac, "ratio")
	m.set("go.gc_pause_p99_ms", ms(ph.gc.pauseP99), "ms")

	// trace validity: the blocking path of every operation, by layer.
	// The residual is the latency no layer's span covers: the generator
	// between an operation's due time and its call, less the queue wait.
	opIdx := map[uint64]int{}
	for i, s := range v.spans {
		if strings.HasPrefix(s.name, "client.") {
			opIdx[s.id] = i
		}
	}
	var latSum, residSum float64
	path := map[string]float64{}
	pathTotal := map[opKind]float64{}
	for _, s := range ph.measured() {
		i, ok := opIdx[s.span]
		if !ok || s.err != nil {
			continue
		}
		lat := float64(s.latency())
		attributed := float64(s.queueWait())
		path[s.kind.String()+".loadgen"] += float64(s.queueWait())
		v.blocking(i, v.spans[i].start, v.spans[i].end, func(name string, ns int64) {
			attributed += float64(ns)
			path[s.kind.String()+"."+layerOf(name)] += float64(ns)
		})
		latSum += lat
		residSum += math.Abs(lat - attributed)
		pathTotal[s.kind] += lat
	}
	m.set("trace.residual_share", residSum/latSum, "ratio")
	for k, ns := range path {
		kind, _, _ := strings.Cut(k, ".")
		var total float64
		for ok, t := range pathTotal {
			if ok.String() == kind {
				total = t
			}
		}
		extra.set("path."+k+"_share", ns/total, "ratio")
	}
	base, _, _ := untraced.endToEnd(0)
	traced, _, _ := ph.endToEnd(0)
	m.set("trace.overhead_share", traced["cpu_s_per_GB"].Value/base["cpu_s_per_GB"].Value-1, "ratio")
	return m, extra
}
