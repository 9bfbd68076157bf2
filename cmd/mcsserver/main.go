// Command mcsserver runs the mobile cloud storage service on real TCP
// sockets: one metadata server and N storage front-ends, each logging
// every request in the Table 1 schema to a log file that mcsanalyze
// can consume directly. An optional ops listener exposes Prometheus
// metrics, health/readiness probes, expvar, and pprof for the whole
// process.
//
// Usage:
//
//	mcsserver -meta :8070 -frontends :8081,:8082 -log service.log -ops :8090
package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"flag"

	"mcloud/internal/cluster"
	"mcloud/internal/faults"
	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/storage"
	"mcloud/internal/trace"
	"mcloud/internal/tracing"
)

func main() {
	var (
		metaAddr = flag.String("meta", ":8070", "metadata server listen address")
		feAddrs  = flag.String("frontends", ":8081", "comma-separated front-end listen addresses")
		logPath  = flag.String("log", "service.log", "request log output path")
		tsrvMS   = flag.Int("tsrv", 0, "simulated upstream processing median (ms); 0 disables the extra delay")
		opsAddr  = flag.String("ops", ":8090", "ops listener address for /metrics, /healthz, /readyz, /debug/vars, /debug/pprof (empty disables)")
		cacheMB  = flag.Int("cache", 0, "read-path LRU chunk cache size in MB (0 disables)")
		drain    = flag.Duration("drain", 15*time.Second, "max time to wait for in-flight requests at shutdown")
		chaos    = flag.String("chaos", "", `fault-injection scenario, e.g. "mixed10,seed=42" or "error=0.05,reset=0.02" (empty disables; see internal/faults)`)
		maxInfl  = flag.Int("maxinflight", 0, "shed load with 503 + Retry-After beyond this many in-flight front-end requests (0 disables)")
		readTO   = flag.Duration("readtimeout", time.Minute, "per-connection request read deadline (0 disables)")
		shards   = flag.Int("shards", 0, "chunk store lock shards, rounded up to a power of two (0 = 4x GOMAXPROCS)")
		dataDir  = flag.String("data", "", "durable chunk store directory: segment files with crash recovery (empty keeps chunks in RAM)")
		segSize  = flag.Int64("segsize", 64<<20, "segment file size in bytes before rotation (with -data)")
		compact  = flag.Float64("compactbelow", 0.5, "rewrite sealed segments whose live-byte ratio falls below this (with -data)")
		compEvry = flag.Duration("compactevery", 30*time.Second, "background compaction sweep interval (with -data; 0 disables)")
		coldAftr = flag.Duration("coldafter", 0, "demote chunks idle this long from RAM to the disk cold tier (needs -data; 0 serves everything from disk)")
		nodeURL  = flag.String("node", "", "this node's advertised base URL in a cluster (default: first front-end listener)")
		peerList = flag.String("peers", "", "comma-separated base URLs of every cluster node, self included (empty = single node, no replication)")
		replicas = flag.Int("replicas", 3, "replica owners per chunk in a cluster (N)")
		quorum   = flag.Int("quorum", 2, "owner acks required before a chunk PUT is acknowledged (W)")
		metaURL  = flag.String("metaurl", "", "remote metadata service base URL(s), comma-separated primary-first; when set this node serves no metadata itself")
		metaDir  = flag.String("metadata-dir", "", "durable metadata directory: WAL + checkpoint with crash recovery (empty keeps metadata in RAM)")
		metaCkpt = flag.Duration("metacheckpoint", 30*time.Second, "periodic metadata checkpoint interval (with -metadata-dir; 0 disables)")
		metaStby = flag.String("metastandby", "", "serve metadata as a read-only standby replicating from this primary base URL")
		metaLeas = flag.Duration("metafailover", 0, "standby lease TTL: self-promote when the primary has not answered a pull for this long (with -metastandby; 0 = manual promotion only)")
		metaRiv  = flag.String("metapeers", "", "comma-separated base URLs of the other metadata nodes, checked before self-promotion so only one standby wins (with -metafailover)")
		metaFEs  = flag.String("metafrontends", "", "comma-separated front-end base URLs the metadata server assigns to clients (default: cluster peers, else this process's listeners)")
		metaShds = flag.String("metashards", "", `metadata shard map: ";"-separated shard groups, each a ","-separated endpoint list (primary first); every node of the plane shares one spec`)
		metaShID = flag.Int("metashard", 0, "which shard of -metashards this node's metadata server serves")
		legacyOn = flag.Bool("legacyapi", true, "serve the deprecated unversioned path aliases (/meta/*, /op/*, /chunk/*) alongside /v1; false withholds them")
		traceBuf = flag.Int("tracebuf", 65536, "distributed-tracing span ring capacity per process (0 disables tracing)")
		traceSmp = flag.Int("tracesample", 1, "record 1 in N locally-rooted traces (requests arriving with X-MCS-Trace are always recorded)")
		binAPI   = flag.Bool("binapi", true, "serve the mcsbin/1 binary chunk dialect (/v1/bin/*) and advertise it via X-MCS-Bin; false pins peers and clients to JSON")
	)
	flag.Parse()
	fmt.Printf("mcsserver: GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))

	scenario, err := faults.ParseScenario(*chaos)
	if err != nil {
		fatal(err)
	}

	logFile, err := os.Create(*logPath)
	if err != nil {
		fatal(err)
	}
	defer logFile.Close()
	sink := storage.NewWriterSink(trace.NewWriter(logFile))

	reg := metrics.NewRegistry()
	health := &metrics.Health{}

	// Chunk store stack, bottom up: RAM shards, or durable segments
	// (-data), optionally split hot-RAM/cold-disk (-coldafter), with a
	// read-path LRU (-cache) on top of whichever base was chosen.
	var store storage.ChunkStore
	var disk *storage.DiskStore
	var tiered *storage.TieredStore
	if *dataDir != "" {
		var err error
		disk, err = storage.OpenDiskStore(*dataDir, storage.DiskStoreOptions{
			SegmentSize:  *segSize,
			CompactBelow: *compact,
		})
		if err != nil {
			fatal(err)
		}
		disk.Instrument(reg)
		dst := disk.DiskStats()
		fmt.Printf("mcsserver: durable store %s: %d chunks across %d segments recovered in %v",
			*dataDir, disk.Stats().Chunks, dst.Segments, dst.Recovery.Round(time.Millisecond))
		if dst.Truncated > 0 {
			fmt.Printf(" (%d torn-tail bytes truncated)", dst.Truncated)
		}
		fmt.Println()
		store = disk
		if *coldAftr > 0 {
			hot := storage.NewMemStoreShards(*shards)
			tiered = storage.NewTieredStore(hot, disk, *coldAftr, nil)
			tiered.Instrument(reg)
			// Chunks recovered from disk start cold; a read promotes.
			adopted := 0
			disk.Range(func(sum storage.Sum, size int64) bool {
				tiered.AdoptCold(sum, size)
				adopted++
				return true
			})
			store = tiered
			fmt.Printf("mcsserver: tiering RAM-hot chunks to disk after %v idle (%d recovered chunks adopted cold)\n",
				*coldAftr, adopted)
		}
	} else {
		memStore := storage.NewMemStoreShards(*shards)
		fmt.Printf("mcsserver: chunk store sharded %d ways\n", memStore.Shards())
		store = memStore
	}
	storage.InstrumentStore(reg, store)
	var cached *storage.CachedStore
	if *cacheMB > 0 {
		cached = storage.NewCachedStore(store, int64(*cacheMB)<<20)
		cached.Instrument(reg)
		store = cached
	}

	// Metadata sharding: every node of a sharded plane (and every
	// front-end routing to it) shares one -metashards spec. The
	// resolved map carries a version that bumps whenever the layout
	// changes; metadata nodes persist it next to their WAL so a
	// restart under a changed spec is detectable.
	var smap *cluster.MetaShardMap
	if *metaShds != "" {
		groups, err := cluster.ParseMetaShards(*metaShds)
		if err != nil {
			fatal(err)
		}
		smap, err = cluster.ResolveShardMap(*metaDir, groups)
		if err != nil {
			fatal(err)
		}
		if *metaShID < 0 || *metaShID >= smap.NumShards() {
			fatal(fmt.Errorf("-metashard %d out of range: map has %d shards", *metaShID, smap.NumShards()))
		}
	}

	// Metadata: served in-process by default; in a cluster, non-meta
	// nodes point -metaurl at the node that does and commit uploads
	// over the wire instead.
	var meta *storage.Metadata
	var metaSvc storage.MetaService
	var remoteMeta *storage.RemoteMeta
	if *metaURL != "" || (*metaShds != "" && *metaAddr == "") {
		if smap != nil {
			remoteMeta = storage.NewShardedRemoteMeta(smap, nil)
			fmt.Printf("mcsserver: routing metadata across %d shards (map version %d)\n",
				smap.NumShards(), smap.Version)
		} else {
			remoteMeta = storage.NewRemoteMeta(*metaURL, nil)
			fmt.Printf("mcsserver: using remote metadata at %s\n", *metaURL)
		}
		metaSvc = remoteMeta
	} else {
		if *metaDir != "" {
			var err error
			meta, err = storage.OpenDurableMetadata(*metaDir)
			if err != nil {
				fatal(err)
			}
			ws := meta.WAL().Stats()
			fmt.Printf("mcsserver: durable metadata %s: %d files recovered in %v (checkpoint seq %d, last seq %d)",
				*metaDir, meta.Stats().Files, ws.Recovery.Round(time.Millisecond), ws.CheckpointSeq, meta.LastSeq())
			if ws.Truncated > 0 {
				fmt.Printf(" (%d torn-tail bytes truncated)", ws.Truncated)
			}
			fmt.Println()
		} else {
			meta = storage.NewMetadata()
		}
		if smap != nil {
			meta.SetShard(*metaShID, smap)
			fmt.Printf("mcsserver: metadata shard %d of %d (map version %d)\n",
				*metaShID, smap.NumShards(), smap.Version)
		}
		meta.SetLegacyAPI(*legacyOn)
		meta.Instrument(reg)
		metaSvc = meta
	}

	// A node serving one shard of a multi-shard plane routes its own
	// front-ends' commits/lookups through the shard map — only calls
	// pinned to the local shard may short-circuit in process.
	if smap != nil && smap.NumShards() > 1 && meta != nil {
		remoteMeta = storage.NewShardedRemoteMeta(smap, nil)
		metaSvc = remoteMeta
	}

	// Standby mode: replicate the primary's WAL stream and reject
	// direct writes with a retryable 503, so front-ends fail over.
	var standby *storage.MetaStandby
	if *metaStby != "" {
		if meta == nil {
			fatal(fmt.Errorf("-metastandby requires serving metadata locally (drop -metaurl)"))
		}
		standby = storage.NewMetaStandby(meta, *metaStby, nil, 0)
		standby.Instrument(reg)
		standby.SetLogf(func(format string, args ...interface{}) {
			fmt.Printf("mcsserver: "+format+"\n", args...)
		})
		if *metaLeas > 0 {
			var rivals []string
			for _, r := range strings.Split(*metaRiv, ",") {
				if r = strings.TrimSpace(r); r != "" {
					rivals = append(rivals, r)
				}
			}
			standby.SetFailover(*metaLeas, rivals...)
			fmt.Printf("mcsserver: metadata standby replicating from %s (auto-failover lease %v, %d rivals)\n",
				*metaStby, *metaLeas, len(rivals))
		} else {
			fmt.Printf("mcsserver: metadata standby replicating from %s\n", *metaStby)
		}
	}

	cfg := storage.FrontEndConfig{
		Meta:          metaSvc,
		Sink:          sink,
		Metrics:       storage.NewFrontEndMetrics(reg),
		DisableBin:    !*binAPI,
		DisableLegacy: !*legacyOn,
	}
	if remoteMeta != nil {
		cfg.MetaSummary = remoteMeta.Summary
	} else if meta != nil {
		m := meta
		cfg.MetaSummary = func(context.Context) *storage.MetaShardSummary {
			v := m.ShardMapView()
			return &storage.MetaShardSummary{
				Shards:     v.NumShards(),
				MapVersion: v.Version,
				ShardInfo:  []storage.MetaShardInfo{{Shard: m.ShardID(), Epoch: m.WALStatus().Epoch}},
			}
		}
	}
	if *tsrvMS > 0 {
		src := randx.New(uint64(time.Now().UnixNano()))
		median := float64(*tsrvMS) * float64(time.Millisecond)
		cfg.UpstreamDelay = func() time.Duration {
			return time.Duration(src.LogNormal(math.Log(median), 0.45))
		}
		cfg.SleepUpstream = true
	}

	// Overload protection: one process-wide limiter shared by every
	// front-end listener, so the bound covers total in-flight load.
	var shedder *storage.Shedder
	if *maxInfl > 0 {
		shedder = storage.NewShedder(*maxInfl)
		shedder.Instrument(reg, "frontend")
		fmt.Printf("mcsserver: shedding load beyond %d in-flight front-end requests\n", *maxInfl)
	}

	// Front-end listeners come up before the serving stack: in a
	// cluster the node's advertised URL (first listener unless -node
	// overrides it) keys both ring placement and per-node chaos gating.
	type feListener struct {
		ln   net.Listener
		base string
	}
	var feLns []feListener
	for _, addr := range strings.Split(*feAddrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue // -frontends "" runs a dedicated metadata node
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fatal(err)
		}
		feLns = append(feLns, feListener{ln: ln, base: "http://" + hostify(ln.Addr().String())})
	}
	// The metadata listener comes up alongside the front-ends so a
	// dedicated metadata node (no front-ends) still has an identity.
	var metaLn net.Listener
	if meta != nil {
		var err error
		metaLn, err = net.Listen("tcp", *metaAddr)
		if err != nil {
			fatal(err)
		}
	}
	selfNode := *nodeURL
	switch {
	case selfNode != "":
	case len(feLns) > 0:
		selfNode = feLns[0].base
	case metaLn != nil:
		selfNode = "http://" + hostify(metaLn.Addr().String())
	default:
		fatal(fmt.Errorf("no listeners: provide -frontends or serve metadata"))
	}

	// Distributed tracing: one span ring for the whole process, shared
	// by every front-end and the metadata handler. Client-rooted
	// traces arriving with X-MCS-Trace are always recorded; locally
	// rooted ones obey -tracesample.
	var tracer *tracing.Tracer
	if *traceBuf > 0 {
		tracer = tracing.New(tracing.Config{Node: selfNode, Capacity: *traceBuf, Sample: *traceSmp})
		fmt.Printf("mcsserver: tracing %d-span ring (sample 1/%d) at /debug/traces\n", *traceBuf, max(1, *traceSmp))
	}
	cfg.Tracer = tracer

	// Fault injection: independent deterministic streams for the
	// front-end and metadata paths, derived from the scenario seed. A
	// scenario naming a node (node=...) fires only on that node, so a
	// whole cluster can share one -chaos spec and lose exactly one
	// replica.
	scenario = scenario.ForNode(selfNode)
	var injFE, injMeta *faults.Injector
	if scenario.Enabled() {
		injFE = faults.New(scenario.Derive("frontend"))
		injFE.Instrument(reg, "frontend")
		injMeta = faults.New(scenario.Derive("meta"))
		injMeta.Instrument(reg, "meta")
		fmt.Printf("mcsserver: chaos scenario %q\n", scenario)
	}

	// Replication: with -peers, every chunk maps onto N ring owners
	// and this node fans writes out / fails reads over among them; the
	// local store stack serves replica-internal traffic directly.
	serveStore := store
	var repl *storage.ReplicatedStore
	if *peerList != "" {
		peers := strings.Split(*peerList, ",")
		for i := range peers {
			peers[i] = strings.TrimSpace(peers[i])
		}
		var err error
		repl, err = storage.NewReplicatedStore(storage.ReplicatedConfig{
			Self:        selfNode,
			Peers:       peers,
			Replicas:    *replicas,
			WriteQuorum: *quorum,
			Local:       store,
			DisableBin:  !*binAPI,
		})
		if err != nil {
			fatal(err)
		}
		repl.Instrument(reg)
		serveStore = repl
		info := repl.Info()
		fmt.Printf("mcsserver: cluster node %s (%d peers, N=%d W=%d)\n",
			selfNode, len(info.Peers), info.Replicas, info.Quorum)
	}
	cfg.Store = serveStore
	cfg.Local = store

	newServer := func(h http.Handler) *http.Server {
		return &http.Server{
			Handler:           h,
			ReadTimeout:       *readTO,
			ReadHeaderTimeout: *readTO,
		}
	}

	// labeled tags request-serving goroutines so CPU profiles from
	// /debug/pprof split by component.
	labeled := func(component string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			pprof.Do(r.Context(), pprof.Labels("component", component), func(ctx context.Context) {
				h.ServeHTTP(w, r.WithContext(ctx))
			})
		})
	}

	var servers []*http.Server
	for _, fl := range feLns {
		fe := storage.NewFrontEnd(cfg)
		h := fe.Handler()
		if injFE != nil {
			h = injFE.Middleware(h)
		}
		if shedder != nil {
			h = shedder.Wrap(h)
		}
		srv := newServer(labeled("frontend", h))
		go srv.Serve(fl.ln)
		servers = append(servers, srv)
		fmt.Printf("mcsserver: front-end on %s\n", fl.base)
	}
	if meta != nil {
		// The metadata server assigns front-ends to clients:
		// -metafrontends when given (dedicated metadata nodes), else
		// every peer node in a cluster, else this process's listeners.
		if *metaFEs != "" {
			for _, fe := range strings.Split(*metaFEs, ",") {
				if fe = strings.TrimSpace(fe); fe != "" {
					meta.AddFrontEnd(fe)
				}
			}
		} else if repl != nil {
			for _, p := range repl.Info().Peers {
				meta.AddFrontEnd(p)
			}
		} else {
			for _, fl := range feLns {
				meta.AddFrontEnd(fl.base)
			}
		}
		metaH := tracing.Middleware(tracer, tracing.CompMeta, nil, meta.Handler())
		if injMeta != nil {
			metaH = injMeta.Middleware(metaH)
		}
		metaSrv := newServer(labeled("meta", metaH))
		go metaSrv.Serve(metaLn)
		servers = append(servers, metaSrv)
		fmt.Printf("mcsserver: metadata server on http://%s\n", hostify(metaLn.Addr().String()))
	}
	fmt.Printf("mcsserver: logging requests to %s\n", *logPath)

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			fatal(err)
		}
		metrics.PublishExpvar("mcs", reg)
		metrics.PublishBuildInfo(selfNode)
		opsMux := metrics.OpsMux(reg, health)
		if tracer != nil {
			opsMux.Handle("/debug/traces", tracing.Handler(tracer))
		}
		opsSrv = &http.Server{Handler: opsMux}
		go opsSrv.Serve(opsLn)
		fmt.Printf("mcsserver: ops listener on http://%s (/metrics /healthz /readyz /debug/vars /debug/traces /debug/pprof)\n",
			hostify(opsLn.Addr().String()))
	}
	health.SetReady(true)
	if standby != nil {
		standby.SetTracer(tracer)
		standby.Start()
	}
	// Probe assigned front-ends so pickFrontEnd skips dead ones
	// instead of handing clients an endpoint that cannot answer.
	var stopFEProbe func()
	if meta != nil {
		stopFEProbe = meta.ProbeFrontEnds(nil, 2*time.Second)
	}

	// Background maintenance: demote idle chunks to the cold tier,
	// reclaim dead segment space, and checkpoint the metadata WAL so
	// recovery replay stays short. All loops stop at shutdown so the
	// final fsync in Close is the last write.
	maintDone := make(chan struct{})
	var maintWG sync.WaitGroup
	if tiered != nil {
		every := *coldAftr / 4
		if every < time.Second {
			every = time.Second
		}
		maintWG.Add(1)
		go func() {
			defer maintWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-maintDone:
					return
				case <-tick.C:
					if n, err := tiered.Migrate(); err != nil {
						fmt.Fprintln(os.Stderr, "mcsserver: tier migrate:", err)
					} else if n > 0 {
						tiered.AccrueOccupancy(every)
					}
				}
			}
		}()
	}
	if disk != nil && *compEvry > 0 {
		maintWG.Add(1)
		go func() {
			defer maintWG.Done()
			tick := time.NewTicker(*compEvry)
			defer tick.Stop()
			for {
				select {
				case <-maintDone:
					return
				case <-tick.C:
					if _, err := disk.Compact(); err != nil {
						fmt.Fprintln(os.Stderr, "mcsserver: compact:", err)
					}
				}
			}
		}()
	}
	if meta != nil && meta.WAL() != nil && *metaCkpt > 0 {
		maintWG.Add(1)
		go func() {
			defer maintWG.Done()
			tick := time.NewTicker(*metaCkpt)
			defer tick.Stop()
			for {
				select {
				case <-maintDone:
					return
				case <-tick.C:
					if err := meta.Checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "mcsserver: meta checkpoint:", err)
					}
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop

	// Graceful drain: stop accepting, let in-flight uploads finish so
	// their log records land before the sink is flushed, then flush and
	// snapshot. The ops listener stays up through the drain so the final
	// state remains scrapable; /readyz flips to 503 immediately.
	health.SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	var wg sync.WaitGroup
	for _, s := range servers {
		wg.Add(1)
		go func(s *http.Server) {
			defer wg.Done()
			if err := s.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "mcsserver: shutdown:", err)
			}
		}(s)
	}
	wg.Wait()
	cancel()
	close(maintDone)
	maintWG.Wait()
	if stopFEProbe != nil {
		stopFEProbe()
	}
	if standby != nil {
		standby.Close()
	}
	if repl != nil {
		repl.Close()
	}
	if tiered != nil {
		// The hot tier is RAM: anything acknowledged but not yet
		// demoted must reach the durable cold tier before it closes.
		n, err := tiered.FlushHot()
		if err != nil {
			fatal(fmt.Errorf("flushing hot tier: %w", err))
		}
		fmt.Printf("mcsserver: flushed %d hot chunks to the cold tier\n", n)
	}
	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	if disk != nil {
		if err := disk.Close(); err != nil {
			fatal(err)
		}
	}
	if meta != nil && meta.WAL() != nil {
		// CloseWAL checkpoints first, so the next open replays nothing.
		if err := meta.CloseWAL(); err != nil {
			fatal(err)
		}
		fmt.Printf("mcsserver: metadata checkpointed at seq %d in %s\n", meta.LastSeq(), *metaDir)
	}
	if opsSrv != nil {
		opsSrv.Close()
	}
	st := store.Stats()
	fmt.Printf("\nmcsserver: %d chunks (%0.2f MB unique), dedup ratio %.3f\n",
		st.Chunks, float64(st.Bytes)/(1<<20), st.DedupRatio())
	if meta != nil {
		ms := meta.Stats()
		fmt.Printf("mcsserver: %d files, %d users, %d dedup hits\n", ms.Files, ms.Users, ms.DedupHits)
		if w := meta.WAL(); w != nil {
			ws := w.Stats()
			fmt.Printf("mcsserver: metadata WAL %d appends (%0.2f KB), %d fsyncs, %d checkpoints\n",
				ws.Appends, float64(ws.BytesLogged)/(1<<10), ws.Fsyncs, ws.Checkpoints)
		}
	}
	if repl != nil {
		fmt.Printf("mcsserver: cluster under-replicated chunks at exit: %d\n", repl.Underreplicated())
	}
	if cached != nil {
		cs := cached.CacheStats()
		fmt.Printf("mcsserver: cache %.1f%% hit rate (%d hits / %d misses), %0.2f MB used of %0.2f MB\n",
			100*cs.HitRate(), cs.Hits, cs.Misses, float64(cs.Used)/(1<<20), float64(cs.Capacity)/(1<<20))
	}
	if disk != nil {
		dst := disk.DiskStats()
		fmt.Printf("mcsserver: disk store %d segments, %0.2f MB live / %0.2f MB dead, %d fsyncs, %d compactions\n",
			dst.Segments, float64(dst.LiveBytes)/(1<<20), float64(dst.DeadBytes)/(1<<20), dst.Fsyncs, dst.Compactions)
	}
	if tiered != nil {
		ti := tiered.TierStats()
		fmt.Printf("mcsserver: tiering %d demotions, %d promotions, %d hot / %d cold reads\n",
			ti.Demotions, ti.Promotions, ti.HotReads, ti.ColdReads)
	}
	if injFE != nil {
		fmt.Printf("mcsserver: chaos injected %d front-end + %d metadata faults across %d requests\n",
			injFE.Injected(), injMeta.Injected(), injFE.Requests()+injMeta.Requests())
	}
	if shedder != nil {
		ss := shedder.Stats()
		fmt.Printf("mcsserver: overload shed %d of %d requests\n", ss.Sheds, ss.Sheds+ss.Admitted)
	}
}

// hostify rewrites a wildcard listen address into a dialable one.
func hostify(addr string) string {
	if strings.HasPrefix(addr, "[::]") {
		return "127.0.0.1" + strings.TrimPrefix(addr, "[::]")
	}
	if strings.HasPrefix(addr, "0.0.0.0") {
		return "127.0.0.1" + strings.TrimPrefix(addr, "0.0.0.0")
	}
	return addr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsserver:", err)
	os.Exit(1)
}
