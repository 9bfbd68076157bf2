package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/metrics"
	"mcloud/internal/tracing"
)

// ReplicatedStore spreads chunks across a cluster of front-end nodes
// the way the paper's deployment spreads one namespace over many
// front-ends (§2): every chunk digest maps, via the consistent-hash
// ring, onto N replica owners; a PUT accepted by any node fans out to
// the owners and acknowledges once W of them have the bytes; a GET is
// served by the nearest live replica, failing over down the owner
// list. Replica sub-requests carry the X-MCS-Replica header, so a
// forwarded request is served from the target's local store and never
// forwarded again — placement converges in one hop from any node.
//
// Failed replica writes are remembered in a repair queue: a
// background loop (and the mcsrebalance pass) re-streams those chunks
// to their owners once they answer again, draining the
// mcs_cluster_underreplicated gauge back to zero.
//
// The store implements ChunkStore, so the front-end, cache and
// instrumentation layers compose with it unchanged. Stats() reports
// the local shard only; cluster-wide occupancy is the ring-weighted
// sum over nodes.
type ReplicatedStore struct {
	self   string
	ring   *cluster.Ring
	n, w   int
	local  ChunkStore
	http   *http.Client
	health *cluster.Health
	met    *cluster.Metrics // nil until Instrument; nil-safe

	repairMu sync.Mutex
	repairQ  map[Sum]map[string]bool // chunk -> owners known to be missing it

	binMu      sync.Mutex
	binPeers   map[string]bool // peer -> last-seen X-MCS-Bin capability
	disableBin bool

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// ReplicatedConfig configures a ReplicatedStore.
type ReplicatedConfig struct {
	// Self is this node's advertised base URL; it must appear in
	// Peers.
	Self string
	// Peers is the full static membership, including Self. Order does
	// not matter: placement depends only on the member names.
	Peers []string
	// Replicas is N, the owners per chunk (default 3, clamped to the
	// membership size).
	Replicas int
	// WriteQuorum is W, the owner acks required before a PUT is
	// acknowledged (default 2, clamped to Replicas).
	WriteQuorum int
	// VNodes is the virtual nodes per member on the ring (default
	// cluster.DefaultVNodes).
	VNodes int
	// Local is this node's own chunk store.
	Local ChunkStore
	// HTTP is the peer transport; nil selects a shared default with
	// connection reuse and timeouts.
	HTTP *http.Client
	// Health tracks peer liveness; nil creates a default breaker
	// (3 consecutive failures, 2s cooldown).
	Health *cluster.Health
	// RepairEvery is the background repair sweep interval; 0 means
	// 2s, negative disables the loop (tests drive RepairNow directly).
	RepairEvery time.Duration
	// DisableBin pins replica traffic to the JSON chunk paths even
	// toward peers advertising mcsbin/1 — set on nodes running with
	// the binary dialect withheld, so a "legacy" node is legacy in
	// both directions.
	DisableBin bool
}

// NewReplicatedStore builds the replication layer and starts its
// repair loop. Call Close at shutdown.
func NewReplicatedStore(cfg ReplicatedConfig) (*ReplicatedStore, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("storage: replicated store needs a local store")
	}
	ring, err := cluster.NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if !ring.Contains(cfg.Self) {
		return nil, fmt.Errorf("storage: self %q is not in the peer list", cfg.Self)
	}
	n := cfg.Replicas
	if n <= 0 {
		n = 3
	}
	if n > ring.Size() {
		n = ring.Size()
	}
	w := cfg.WriteQuorum
	if w <= 0 {
		w = 2
	}
	if w > n {
		w = n
	}
	httpc := cfg.HTTP
	if httpc == nil {
		httpc = replicaHTTPClient
	}
	health := cfg.Health
	if health == nil {
		health = cluster.NewHealth(0, 0)
	}
	rs := &ReplicatedStore{
		self:       cfg.Self,
		ring:       ring,
		n:          n,
		w:          w,
		local:      cfg.Local,
		http:       httpc,
		health:     health,
		disableBin: cfg.DisableBin,
		repairQ:    make(map[Sum]map[string]bool),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	every := cfg.RepairEvery
	if every == 0 {
		every = 2 * time.Second
	}
	if every > 0 {
		go rs.repairLoop(every)
	} else {
		close(rs.done)
	}
	return rs, nil
}

// Instrument registers the mcs_cluster_* series. Call once, before
// serving.
func (rs *ReplicatedStore) Instrument(reg *metrics.Registry) {
	rs.met = cluster.NewMetrics(reg, rs.ring, rs.health)
	rs.met.SetUnderreplicated(rs.Underreplicated())
}

// Local returns the node's own store (serves replica-internal
// requests).
func (rs *ReplicatedStore) Local() ChunkStore { return rs.local }

// Info describes the node's placement configuration.
func (rs *ReplicatedStore) Info() ClusterInfo {
	return ClusterInfo{Node: rs.self, Peers: rs.ring.Nodes(), Replicas: rs.n, Quorum: rs.w}
}

// Owners returns the replica set for a chunk, primary first.
func (rs *ReplicatedStore) Owners(sum Sum) []string {
	return rs.ring.Owners(cluster.Key(sum), rs.n)
}

// Close stops the repair loop.
func (rs *ReplicatedStore) Close() error {
	rs.stopOnce.Do(func() { close(rs.stop) })
	<-rs.done
	return nil
}

// Put implements ChunkStore: fan out to the N owners, acknowledge at
// W acks. Owners that fail are queued for repair; if the quorum is
// unreachable the error wraps ErrUnavailable (503 to the client,
// which retries).
func (rs *ReplicatedStore) Put(sum Sum, data []byte) error {
	return rs.PutCtx(context.Background(), sum, data)
}

// PutCtx implements CtxStore: the fan-out runs under one barrier span
// (child of the request's span) with a child span per remote replica
// write, so stragglers and failed owners are visible in the trace.
func (rs *ReplicatedStore) PutCtx(ctx context.Context, sum Sum, data []byte) (err error) {
	owners := rs.Owners(sum)
	if len(owners) == 1 && owners[0] == rs.self {
		return PutCtx(ctx, rs.local, sum, data)
	}
	fanout := tracing.ChildFromContext(ctx, tracing.CompReplicate, tracing.SpanFanout)
	fanout.AnnotateInt("replicas", int64(len(owners)))
	fanout.AnnotateInt("quorum", int64(rs.w))
	defer func() { fanout.EndErr(err) }()
	ctx = tracing.NewContext(ctx, fanout)

	// Copy the chunk once, laid out as a single-frame mcsbin PUT body:
	// the caller may recycle its (pooled) buffer as soon as we return,
	// but straggler replica sends — and the background drain after a
	// quorum ack — keep reading it. A verified record is copied as it
	// is, so the copy is verified too: the local write appends it
	// verbatim and remote owners receive it without a re-encode.
	rec := verifiedRecord(ctx, sum, data)
	body := binPutBody(sum, data, rec)
	if rec != nil {
		ctx = withVerifiedRecord(ctx, body[4:])
	}

	start := time.Now()
	type result struct {
		node string
		err  error
	}
	results := make(chan result, len(owners))
	for _, o := range owners {
		go func(o string) { results <- result{o, rs.putReplica(ctx, o, sum, body[4+recHeaderSize:], body)} }(o)
	}

	needed := rs.w
	acks, fails, outstanding := 0, 0, len(owners)
	var firstErr error
	for outstanding > 0 && acks < needed && fails <= len(owners)-needed {
		r := <-results
		outstanding--
		if r.err == nil {
			acks++
		} else {
			fails++
			if firstErr == nil {
				firstErr = r.err
			}
			rs.noteMissing(sum, r.node)
		}
	}
	if outstanding > 0 {
		// Quorum decided; drain the stragglers off the hot path so
		// their failures still reach the repair queue.
		go func(outstanding int) {
			for i := 0; i < outstanding; i++ {
				if r := <-results; r.err != nil {
					rs.noteMissing(sum, r.node)
				}
			}
		}(outstanding)
	}
	if acks >= needed {
		rs.met.ObserveFanout(time.Since(start))
		return nil
	}
	return fmt.Errorf("%w: %d/%d owner acks (need %d): %v", ErrUnavailable, acks, len(owners), needed, firstErr)
}

// Get implements ChunkStore: serve from the nearest live replica —
// the local store when this node owns the chunk, then the remaining
// owners in ring order, live nodes first. A read that succeeds on a
// remote replica while the local node is an owner missing the bytes
// triggers read repair.
func (rs *ReplicatedStore) Get(sum Sum) ([]byte, error) {
	return rs.GetCtx(context.Background(), sum)
}

// GetCtx implements CtxStore: each remote failover read is a span
// (child of the request's span, annotated with the replica node), so
// a retrieve that had to walk the owner list shows every hop.
func (rs *ReplicatedStore) GetCtx(ctx context.Context, sum Sum) ([]byte, error) {
	owners := rs.Owners(sum)
	selfOwner := false
	remote := make([]string, 0, len(owners))
	for _, o := range owners {
		if o == rs.self {
			selfOwner = true
		} else {
			remote = append(remote, o)
		}
	}
	if selfOwner {
		if data, err := GetCtx(ctx, rs.local, sum); err == nil {
			return data, nil
		}
	}
	var firstErr error
	for _, o := range rs.health.Order(remote) {
		data, err := rs.getReplica(ctx, o, sum)
		if err == nil {
			if o != owners[0] {
				rs.met.GetFailover()
			}
			if selfOwner {
				// Read repair: this node owns the chunk but missed it
				// (it was down during the write, or the chunk predates a
				// membership change).
				if rs.local.Put(sum, data) == nil {
					rs.met.Repair()
					rs.dropMissing(sum, rs.self)
				}
			}
			return data, nil
		}
		if IsNotFound(err) {
			continue // a healthy replica missing the chunk; try the next
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, fmt.Errorf("%w: no live replica answered for %s: %v", ErrUnavailable, sum, firstErr)
	}
	return nil, ErrNotFound
}

// GetReaderCtx implements ReaderStore: when this node owns the chunk
// and holds it locally, the response streams straight from the local
// tier's reader (pin-counted segment region on disk). Otherwise the
// materializing failover path runs — with its health-ordered owner
// walk and read repair intact — and the fetched bytes are wrapped.
func (rs *ReplicatedStore) GetReaderCtx(ctx context.Context, sum Sum) (*ChunkReader, error) {
	for _, o := range rs.Owners(sum) {
		if o != rs.self {
			continue
		}
		if rd, err := GetReader(ctx, rs.local, sum); err == nil {
			return rd, nil
		}
		break
	}
	data, err := rs.GetCtx(ctx, sum)
	if err != nil {
		return nil, err
	}
	return NewBytesReader(data), nil
}

// Has implements ChunkStore.
func (rs *ReplicatedStore) Has(sum Sum) bool {
	if rs.local.Has(sum) {
		return true
	}
	return rs.MultiHas([]Sum{sum})[0]
}

// MultiHas implements MultiHaser with one batched /v1/op/stat probe
// per replica owner instead of a round trip per chunk: rank by rank,
// unresolved digests are grouped by their rank-r owner and asked in
// one request.
func (rs *ReplicatedStore) MultiHas(sums []Sum) []bool {
	out := make([]bool, len(sums))
	unresolved := make([]int, 0, len(sums))
	for i, sum := range sums {
		if rs.local.Has(sum) {
			out[i] = true
		} else {
			unresolved = append(unresolved, i)
		}
	}
	for rank := 0; rank < rs.n && len(unresolved) > 0; rank++ {
		byOwner := make(map[string][]int)
		for _, i := range unresolved {
			owners := rs.Owners(sums[i])
			if rank >= len(owners) {
				continue
			}
			o := owners[rank]
			if o == rs.self { // local already checked
				continue
			}
			byOwner[o] = append(byOwner[o], i)
		}
		// Deterministic probe order keeps test traffic reproducible.
		nodes := make([]string, 0, len(byOwner))
		for o := range byOwner {
			nodes = append(nodes, o)
		}
		sort.Strings(nodes)
		for _, o := range nodes {
			if !rs.health.Alive(o) {
				continue
			}
			idxs := byOwner[o]
			queried := make([]Sum, len(idxs))
			for j, i := range idxs {
				queried[j] = sums[i]
			}
			present, err := rs.statReplica(o, queried)
			if err != nil {
				continue
			}
			for j, i := range idxs {
				if present[j] {
					out[i] = true
				}
			}
		}
		next := unresolved[:0]
		for _, i := range unresolved {
			if !out[i] {
				next = append(next, i)
			}
		}
		unresolved = next
	}
	return out
}

// Stats implements ChunkStore; it reports the node's local shard.
func (rs *ReplicatedStore) Stats() StoreStats { return rs.local.Stats() }

// Underreplicated counts chunks with at least one owner known to be
// missing them.
func (rs *ReplicatedStore) Underreplicated() int {
	rs.repairMu.Lock()
	defer rs.repairMu.Unlock()
	return len(rs.repairQ)
}

// noteMissing queues (chunk, owner) for repair.
func (rs *ReplicatedStore) noteMissing(sum Sum, node string) {
	rs.repairMu.Lock()
	nodes, ok := rs.repairQ[sum]
	if !ok {
		nodes = make(map[string]bool, rs.n)
		rs.repairQ[sum] = nodes
	}
	nodes[node] = true
	depth := len(rs.repairQ)
	rs.repairMu.Unlock()
	rs.met.SetUnderreplicated(depth)
}

// dropMissing clears one repaired (chunk, owner) pair.
func (rs *ReplicatedStore) dropMissing(sum Sum, node string) {
	rs.repairMu.Lock()
	if nodes, ok := rs.repairQ[sum]; ok {
		delete(nodes, node)
		if len(nodes) == 0 {
			delete(rs.repairQ, sum)
		}
	}
	depth := len(rs.repairQ)
	rs.repairMu.Unlock()
	rs.met.SetUnderreplicated(depth)
}

// repairLoop periodically re-streams under-replicated chunks.
func (rs *ReplicatedStore) repairLoop(every time.Duration) {
	defer close(rs.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-rs.stop:
			return
		case <-tick.C:
			rs.RepairNow()
		}
	}
}

// RepairNow synchronously attempts one repair pass over the queue,
// returning how many replicas it re-created. Owners still inside a
// breaker down-window are skipped until their cooldown lapses.
func (rs *ReplicatedStore) RepairNow() int {
	rs.repairMu.Lock()
	work := make(map[Sum][]string, len(rs.repairQ))
	for sum, nodes := range rs.repairQ {
		targets := make([]string, 0, len(nodes))
		for n := range nodes {
			targets = append(targets, n)
		}
		sort.Strings(targets)
		work[sum] = targets
	}
	rs.repairMu.Unlock()

	repaired := 0
	for sum, targets := range work {
		var data []byte
		for _, node := range targets {
			if node != rs.self && !rs.health.Alive(node) {
				continue
			}
			if data == nil {
				data = rs.fetchAny(sum)
				if data == nil {
					break // no live copy right now; retry next sweep
				}
			}
			var err error
			if node == rs.self {
				err = rs.local.Put(sum, data)
			} else {
				err = rs.putReplica(context.Background(), node, sum, data, nil)
			}
			if err == nil {
				rs.dropMissing(sum, node)
				rs.met.Repair()
				repaired++
			}
		}
	}
	return repaired
}

// fetchAny returns the chunk bytes from the nearest live copy, nil
// when none answers.
func (rs *ReplicatedStore) fetchAny(sum Sum) []byte {
	if data, err := rs.local.Get(sum); err == nil {
		return data
	}
	for _, o := range rs.health.Order(rs.Owners(sum)) {
		if o == rs.self {
			continue
		}
		if data, err := rs.getReplica(context.Background(), o, sum); err == nil {
			return data
		}
	}
	return nil
}

// --- replica wire calls -------------------------------------------------

// replicaTimeout bounds one replica sub-request; the quorum decides
// overall latency, so a stuck peer must not hold the fan-out hostage.
const replicaTimeout = 15 * time.Second

// replicaHTTPClient is the default peer transport: connection reuse
// sized for intra-cluster chunk traffic, with the sub-request timeout
// baked in (http.Client.Timeout covers the body read too, so no
// per-request context plumbing is needed).
var replicaHTTPClient = &http.Client{
	Timeout: replicaTimeout,
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

func (rs *ReplicatedStore) replicaReq(method, node, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, node+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set(APIHeader, APIV1)
	req.Header.Set(ReplicaHeader, "1")
	return req, nil
}

// do runs one replica sub-request with health accounting. Every
// response also refreshes the peer's advertised dialect set, so bin
// capability is learned (and un-learned, after a downgrade restart)
// without any extra probe traffic.
func (rs *ReplicatedStore) do(node string, req *http.Request) (*http.Response, error) {
	resp, err := rs.http.Do(req)
	if err != nil {
		rs.health.ReportFailure(node)
		rs.met.ReplicaError()
		return nil, err
	}
	rs.noteBinPeer(node, resp.Header)
	// A 404 is a healthy node answering "I don't have it" — only
	// transport errors and 5xx count against liveness.
	if resp.StatusCode >= 500 {
		rs.health.ReportFailure(node)
		rs.met.ReplicaError()
	} else {
		rs.health.ReportSuccess(node)
	}
	return resp, nil
}

func (rs *ReplicatedStore) noteBinPeer(node string, h http.Header) {
	v := binAdvertised(h)
	rs.binMu.Lock()
	if rs.binPeers == nil {
		rs.binPeers = make(map[string]bool)
	}
	rs.binPeers[node] = v
	rs.binMu.Unlock()
}

func (rs *ReplicatedStore) binPeer(node string) bool {
	if rs.disableBin {
		return false
	}
	rs.binMu.Lock()
	ok := rs.binPeers[node]
	rs.binMu.Unlock()
	return ok
}

// putReplica writes one chunk to one owner. body is data laid out as
// a binPutBody (data its payload), or nil to build one only if the
// owner takes mcsbin/1. The local owner writes through the context
// (disk spans land under the fan-out barrier); a remote owner gets a
// replica-put span whose ID rides the request headers, so the remote
// handler span joins as its child.
func (rs *ReplicatedStore) putReplica(ctx context.Context, node string, sum Sum, data, body []byte) (err error) {
	if node == rs.self {
		return PutCtx(ctx, rs.local, sum, data)
	}
	sp := tracing.ChildFromContext(ctx, tracing.CompReplicate, tracing.SpanReplicaPut)
	sp.Annotate("node", node)
	defer func() { sp.EndErr(err) }()
	var req *http.Request
	if rs.binPeer(node) {
		sp.Annotate("dialect", BinV1)
		if body == nil {
			body = binPutBody(sum, data, nil)
		}
		req, err = binPutOneReq(node, body)
		if err == nil {
			req.Header.Set(APIHeader, APIV1)
			req.Header.Set(ReplicaHeader, "1")
		}
	} else {
		req, err = rs.replicaReq(http.MethodPut, node, "/v1/chunk/"+sum.String(), bytes.NewReader(data))
	}
	if err != nil {
		return err
	}
	sp.Inject(req.Header)
	rs.met.ForwardPut()
	resp, err := rs.do(node, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// getReplica reads one chunk from one remote owner, verifying the
// digest so a corrupt replica is never propagated.
func (rs *ReplicatedStore) getReplica(ctx context.Context, node string, sum Sum) (_ []byte, err error) {
	sp := tracing.ChildFromContext(ctx, tracing.CompReplicate, tracing.SpanReplicaGet)
	sp.Annotate("node", node)
	defer func() { sp.EndErr(err) }()
	if rs.binPeer(node) {
		sp.Annotate("dialect", BinV1)
		req, err := binGetOneReq(node, sum)
		if err != nil {
			return nil, err
		}
		req.Header.Set(APIHeader, APIV1)
		req.Header.Set(ReplicaHeader, "1")
		sp.Inject(req.Header)
		rs.met.ForwardGet()
		resp, err := rs.do(node, req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out, err := binReadOneFrame(resp, sum)
		if err != nil && errors.Is(err, ErrBadDigest) {
			rs.health.ReportFailure(node)
		}
		return out, err
	}
	req, err := rs.replicaReq(http.MethodGet, node, "/v1/chunk/"+sum.String(), nil)
	if err != nil {
		return nil, err
	}
	sp.Inject(req.Header)
	rs.met.ForwardGet()
	resp, err := rs.do(node, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	scratch := getFrameBuf()
	defer putFrameBuf(scratch)
	n, overflow, err := readBody(resp.Body, payloadSlot(scratch))
	if err != nil {
		return nil, err
	}
	data := payloadSlot(scratch)[:n]
	if overflow || SumBytes(data) != sum {
		rs.health.ReportFailure(node)
		return nil, fmt.Errorf("%w: replica %s returned corrupt bytes for %s", ErrBadDigest, node, sum)
	}
	out := make([]byte, n)
	copy(out, data)
	return out, nil
}

// statReplica asks one owner which of the queried chunks it holds.
func (rs *ReplicatedStore) statReplica(node string, sums []Sum) ([]bool, error) {
	body, err := json.Marshal(StatRequest{ChunkMD5s: sumStrings(sums)})
	if err != nil {
		return nil, err
	}
	req, err := rs.replicaReq(http.MethodPost, node, "/v1/op/stat", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rs.do(node, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	var sr StatResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	missing := make(map[string]bool, len(sr.MissingMD5s))
	for _, m := range sr.MissingMD5s {
		missing[m] = true
	}
	out := make([]bool, len(sums))
	for i, s := range sums {
		out[i] = !missing[s.String()]
	}
	return out, nil
}

// IsNotFound reports a missing-chunk error, local or decoded from the
// wire (typed envelope or a legacy server's bare 404).
func IsNotFound(err error) bool {
	return errors.Is(err, ErrNotFound) || statusOf(err) == http.StatusNotFound
}

// statusOf extracts the HTTP status a wire error arrived with, zero
// for local errors.
func statusOf(err error) int {
	var se *serverError
	if errors.As(err, &se) {
		return se.Status
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}
