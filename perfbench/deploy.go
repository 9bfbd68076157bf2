package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/metrics"
	"mcloud/internal/randx"
	"mcloud/internal/storage"
	"mcloud/internal/trace"
	"mcloud/internal/workload"
)

// The service is built in process from the storage package's public
// constructors, the way mcsserver builds it, with fsync on everywhere
// and no model delays (no UpstreamDelay, no InterChunkDelay).

// node is one storage node: a DiskStore (optionally behind a cache or
// a replication layer) served by a front-end.
type node struct {
	url   string
	dir   string
	disk  *storage.DiskStore
	cache *storage.CachedStore
	repl  *storage.ReplicatedStore
	srv   *http.Server
	hs    handlerStats
}

// metaNode is one metadata server: the colocated metadata of a single
// node, or one primary or standby of a shard.
type metaNode struct {
	url     string
	dir     string
	meta    *storage.Metadata
	standby *storage.MetaStandby
	srv     *http.Server
	hs      handlerStats
}

// deployment is a running service plus its 64 users.
type deployment struct {
	sp      spec
	dir     string
	rec     *recorder // nil: untraced
	nodes   []*node
	metas   []*metaNode
	metaURL string
	users   []*storage.Client
	trs     []*http.Transport
	reqs    atomic.Int64 // requests sent by the users
	routes  routeCounts  // the users' requests by route
	cm      *storage.ClientMetrics
}

// listen opens a loopback listener on addr ("" picks a free port).
func listen(addr string) (net.Listener, string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serve(ln net.Listener, h http.Handler) *http.Server {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: time.Minute}
	go srv.Serve(ln)
	return srv
}

// deploy builds the workload's deployment under dir. Directories that
// already hold data are reopened, so the same call serves the
// post-restart verification.
func deploy(sp spec, dir string, rec *recorder) (d *deployment, err error) {
	d = &deployment{sp: sp, dir: dir, rec: rec}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if sp.cluster {
		err = d.buildCluster()
	} else {
		err = d.buildSingle()
	}
	if err != nil {
		return d, err
	}
	d.cm = storage.NewClientMetrics(metrics.NewRegistry())
	src := randx.New(0x5eed)
	for u := 0; u < numUsers; u++ {
		dev := trace.IOS
		if src.Bool(workload.AndroidShare) {
			dev = trace.Android
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: 90 * time.Second}
		rt := &roundTripper{base: tr, rec: rec, reqs: &d.reqs, routes: &d.routes}
		if rec != nil {
			rt.parent = func(*http.Request) uint64 { return rec.cur.Load() }
		}
		d.trs = append(d.trs, tr)
		d.users = append(d.users, storage.NewClient(storage.ClientConfig{
			MetaURL:   d.metaURL,
			UserID:    userID(u),
			DeviceID:  userID(u)*10 + 1,
			Device:    dev,
			HTTP:      &http.Client{Transport: rt, Timeout: 2 * time.Minute},
			RetrySeed: userID(u),
			Parallel:  2,
			Metrics:   d.cm,
		}))
	}
	return d, nil
}

// openDisk opens a node's chunk store with the production defaults
// (fsync on, default segments).
func openDisk(dir string) (*storage.DiskStore, error) {
	return storage.OpenDiskStore(dir, storage.DiskStoreOptions{})
}

// buildSingle is `mcsserver -data D -metadata-dir M [-cache 64]`: one
// front-end over a DiskStore, colocated WAL-backed metadata.
func (d *deployment) buildSingle() error {
	n := &node{dir: filepath.Join(d.dir, "data")}
	d.nodes = append(d.nodes, n)
	mn := &metaNode{dir: filepath.Join(d.dir, "meta")}
	d.metas = append(d.metas, mn)
	var err error
	if n.disk, err = openDisk(n.dir); err != nil {
		return err
	}
	if mn.meta, err = storage.OpenDurableMetadata(mn.dir); err != nil {
		return err
	}
	feLn, feURL, err := listen("")
	if err != nil {
		return err
	}
	metaLn, metaURL, err := listen("")
	if err != nil {
		feLn.Close()
		return err
	}
	n.url, mn.url, d.metaURL = feURL, metaURL, metaURL
	mn.meta.AddFrontEnd(feURL)

	var store storage.ChunkStore = d.wrapStore(n.disk, "cs", false)
	if d.sp.cacheMB > 0 {
		n.cache = storage.NewCachedStore(store, int64(d.sp.cacheMB)<<20)
		store = d.wrapStore(n.cache, "cache", false)
	}
	var meta storage.MetaService = mn.meta
	if d.rec != nil {
		meta = &tracedMeta{inner: mn.meta, rec: d.rec, layer: "metasvc"}
	}
	fe := storage.NewFrontEnd(storage.FrontEndConfig{Store: store, Meta: meta})
	n.srv = serve(feLn, d.wrapHandler("fe", &n.hs, fe.Handler()))
	mn.srv = serve(metaLn, d.wrapHandler("meta", &mn.hs, mn.meta.Handler()))
	return nil
}

// buildCluster is four replicated storage nodes (N=3, W=2) and a
// 2-shard metadata plane, each shard a durable primary plus a lease
// standby acking semi-synchronously; front-ends reach metadata through
// a sharded RemoteMeta.
func (d *deployment) buildCluster() error {
	const nNodes, nShards = 4, 2
	var nodeLns, metaLns []net.Listener
	closeAll := func() {
		for _, ln := range append(nodeLns, metaLns...) {
			ln.Close()
		}
	}
	var peers []string
	for i := 0; i < nNodes; i++ {
		ln, url, err := listen("")
		if err != nil {
			closeAll()
			return err
		}
		nodeLns = append(nodeLns, ln)
		peers = append(peers, url)
		d.nodes = append(d.nodes, &node{url: url, dir: filepath.Join(d.dir, fmt.Sprintf("data%d", i))})
	}
	var groups [][]string
	for s := 0; s < nShards; s++ {
		var group []string
		for _, role := range []string{"primary", "standby"} {
			ln, url, err := listen("")
			if err != nil {
				closeAll()
				return err
			}
			metaLns = append(metaLns, ln)
			group = append(group, url)
			d.metas = append(d.metas, &metaNode{url: url, dir: filepath.Join(d.dir, fmt.Sprintf("meta%d-%s", s, role))})
		}
		groups = append(groups, group)
	}
	smap, err := cluster.NewMetaShardMap(1, groups)
	if err != nil {
		closeAll()
		return err
	}
	d.metaURL = groups[0][0] + "," + groups[1][0]

	for i, mn := range d.metas {
		if mn.meta, err = storage.OpenDurableMetadata(mn.dir); err != nil {
			closeAll()
			return err
		}
		mn.meta.SetShard(i/2, smap)
		for _, p := range peers {
			mn.meta.AddFrontEnd(p)
		}
		if i%2 == 1 {
			mn.standby = storage.NewMetaStandby(mn.meta, d.metas[i-1].url, nil, 0)
			mn.standby.SetFailover(30 * time.Second)
		}
	}
	for i, mn := range d.metas {
		mn.srv = serve(metaLns[i], d.wrapHandler("meta", &mn.hs, mn.meta.Handler()))
		if mn.standby != nil {
			mn.standby.Start()
		}
	}

	for i, n := range d.nodes {
		if n.disk, err = openDisk(n.dir); err != nil {
			closeAll()
			return err
		}
		local := d.wrapStore(n.disk, "cs", false)
		cfg := storage.ReplicatedConfig{Self: n.url, Peers: peers, Replicas: 3, WriteQuorum: 2, Local: local}
		var metaHTTP *http.Client
		if d.rec != nil {
			cfg.HTTP = &http.Client{Timeout: 15 * time.Second, Transport: &roundTripper{
				base: newTransport(), rec: d.rec, parent: d.rec.replicaParent, reqs: new(atomic.Int64)}}
			metaHTTP = &http.Client{Timeout: 2 * time.Minute, Transport: &roundTripper{
				base: newTransport(), rec: d.rec, reqs: new(atomic.Int64),
				parent: func(*http.Request) uint64 { return d.rec.curMeta.Load() }}}
		}
		if n.repl, err = storage.NewReplicatedStore(cfg); err != nil {
			closeAll()
			return err
		}
		remote := storage.NewShardedRemoteMeta(smap, metaHTTP)
		var meta storage.MetaService = remote
		if d.rec != nil {
			meta = &tracedMeta{inner: remote, rec: d.rec, layer: "metaclient"}
		}
		// Local is set explicitly: the nil default type-asserts
		// *ReplicatedStore, which the traced decorator is not.
		fe := storage.NewFrontEnd(storage.FrontEndConfig{
			Store: d.wrapStore(n.repl, "repl", true),
			Local: local,
			Meta:  meta,
		})
		h := fe.Handler()
		if d.rec != nil {
			h = clusterInfo(n.repl, h)
		}
		n.srv = serve(nodeLns[i], d.wrapHandler("fe", &n.hs, h))
	}
	return d.waitStandbys(10 * time.Second)
}

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
}

// waitStandbys waits until every standby has pulled from its primary
// (the metadata node before it), so the first commit already waits for
// the semi-sync ack.
func (d *deployment) waitStandbys(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for i, mn := range d.metas {
		if mn.standby == nil {
			continue
		}
		primary := d.metas[i-1]
		for !primary.meta.WALStatus().SyncStandby {
			if time.Now().After(deadline) {
				return fmt.Errorf("standby %s never attached to %s", mn.url, primary.url)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func (d *deployment) wrapStore(s storage.ChunkStore, layer string, byChunk bool) storage.ChunkStore {
	if d.rec == nil {
		return s
	}
	return &tracedStore{inner: s, rec: d.rec, layer: layer, byChunk: byChunk}
}

func (d *deployment) wrapHandler(layer string, hs *handlerStats, h http.Handler) http.Handler {
	if d.rec == nil {
		return h
	}
	return middleware(d.rec, layer, hs, h)
}

// close stops every server and background loop and closes the stores.
func (d *deployment) close() error {
	var errs []error
	for _, tr := range d.trs {
		tr.CloseIdleConnections()
	}
	for _, n := range d.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
	}
	// Servers close first, so a standby's parked long-poll pull fails
	// at once instead of holding Close for the poll's full second.
	for _, mn := range d.metas {
		if mn.srv != nil {
			mn.srv.Close()
		}
	}
	for _, mn := range d.metas {
		if mn.standby != nil {
			mn.standby.Close()
		}
	}
	for _, n := range d.nodes {
		if n.repl != nil {
			errs = append(errs, n.repl.Close())
		}
		if n.disk != nil {
			errs = append(errs, n.disk.Close())
		}
	}
	for _, mn := range d.metas {
		if mn.meta != nil {
			errs = append(errs, mn.meta.CloseWAL())
		}
	}
	return errors.Join(errs...)
}

// reopen times reopening every closed data and metadata directory:
// OpenDiskStore plus OpenDurableMetadata, closing them again after.
func reopen(d *deployment) (time.Duration, error) {
	start := time.Now()
	var disks []*storage.DiskStore
	var metas []*storage.Metadata
	var err error
	for _, n := range d.nodes {
		var ds *storage.DiskStore
		if ds, err = openDisk(n.dir); err != nil {
			break
		}
		disks = append(disks, ds)
	}
	for _, mn := range d.metas {
		if err != nil {
			break
		}
		var m *storage.Metadata
		if m, err = storage.OpenDurableMetadata(mn.dir); err != nil {
			break
		}
		metas = append(metas, m)
	}
	took := time.Since(start)
	var errs []error
	for _, ds := range disks {
		errs = append(errs, ds.Close())
	}
	for _, m := range metas {
		errs = append(errs, m.CloseWAL())
	}
	return took, errors.Join(append([]error{err}, errs...)...)
}

// diskBytes sums the sizes of every file under the deployment's data
// and metadata directories.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// diskTotals sums the chunk-store counters across nodes.
func (d *deployment) diskTotals() (st storage.DiskStats, puts int64) {
	for _, n := range d.nodes {
		ds := n.disk.DiskStats()
		st.Fsyncs += ds.Fsyncs
		st.StreamReads += ds.StreamReads
		st.LiveBytes += ds.LiveBytes
		st.DeadBytes += ds.DeadBytes
		puts += n.disk.Stats().Puts
	}
	return st, puts
}

// walTotals sums the metadata WAL counters across metadata nodes.
func (d *deployment) walTotals() (st storage.MetaWALStats) {
	for _, mn := range d.metas {
		ws := mn.meta.WAL().Stats()
		st.Fsyncs += ws.Fsyncs
		st.BytesLogged += ws.BytesLogged
		st.Appends += ws.Appends
	}
	return st
}

func (d *deployment) cacheStats() storage.CacheStats {
	var cs storage.CacheStats
	for _, n := range d.nodes {
		if n.cache != nil {
			cs = n.cache.CacheStats()
		}
	}
	return cs
}

func (d *deployment) underreplicated() int {
	total := 0
	for _, n := range d.nodes {
		if n.repl != nil {
			total += n.repl.Underreplicated()
		}
	}
	return total
}

// drainRepairs runs repair passes until no node has a chunk below its
// replica count.
func (d *deployment) drainRepairs(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for d.underreplicated() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d chunks still under-replicated after %v", d.underreplicated(), limit)
		}
		for _, n := range d.nodes {
			if n.repl != nil {
				n.repl.RepairNow()
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
