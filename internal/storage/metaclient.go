package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/randx"
	"mcloud/internal/tracing"
)

// metaDialect is the request decoration a metaRouter caller supplies:
// whether to address an endpoint on the /v1 surface, the caller's own
// headers, and whether a response unmasks a server that predates /v1.
// Client negotiates per host and stamps its identity; RemoteMeta
// speaks plain /v1 (v1Dialect).
type metaDialect interface {
	useV1(base string) bool
	setIdentity(req *http.Request)
	checkLegacy(base string, resp *http.Response) bool
}

// v1Dialect is the undecorated /v1 dialect of server-side callers.
type v1Dialect struct{}

func (v1Dialect) useV1(string) bool                       { return true }
func (v1Dialect) setIdentity(*http.Request)               {}
func (v1Dialect) checkLegacy(string, *http.Response) bool { return false }

// metaRouter is the one shard-routing, failing-over metadata client
// both Client and RemoteMeta run their metadata calls through. It owns
// the shard map and, per shard group, fully independent routing state
// (endpoint rotation, circuit breaker, discovered primary, highest
// observed epoch), so a failover in one shard never perturbs routing
// to the others.
//
// The map is either handed in (RemoteMeta; nil means the unsharded
// plane) or fetched lazily from the bootstrap endpoints (Client), and
// fetched again once after a wrong_shard redirect names a newer map
// version. Every call is pinned to one shard; the redirect's
// authoritative assignment is adopted before the retry, so a stale map
// converges in one bounce. A node answering "not primary" or "fenced",
// or stamping an epoch older than one already seen, is demoted to the
// back of its shard's rotation and the primary is rediscovered via
// /v1/meta/wal/status, so after a failover calls go straight to the
// promoted standby. The highest epoch seen per shard is echoed on
// every request, which fences a deposed primary the moment a
// post-failover caller talks to it.
type metaRouter struct {
	httpc *http.Client
	d     metaDialect
	boot  []string // bootstrap endpoints: the unsharded endpoint list

	mu       sync.Mutex
	smap     *cluster.MetaShardMap // nil: unsharded, every shard falls back to boot
	mapTried bool                  // smap handed in or fetched (reset by a newer-map redirect)
	shards   map[int]*metaShard
}

// metaShard is the routing state for one metadata shard group.
type metaShard struct {
	health *cluster.Health

	mu        sync.Mutex
	endpoints []string // rotation order; demotions move entries back
	preferred string   // last known primary ("" until known)
	lastDisc  time.Time

	epochSeen    atomic.Uint64 // highest epoch observed on any response
	primaryEpoch atomic.Uint64 // epoch of the last discovered primary
}

func newMetaRouter(boot []string, smap *cluster.MetaShardMap, mapGiven bool, httpc *http.Client, d metaDialect) *metaRouter {
	if len(boot) == 0 {
		boot = []string{""}
	}
	return &metaRouter{
		httpc:    httpc,
		d:        d,
		boot:     boot,
		smap:     smap,
		mapTried: mapGiven,
		shards:   make(map[int]*metaShard),
	}
}

// splitEndpoints parses a comma-separated endpoint list.
func splitEndpoints(s string) []string {
	var eps []string
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimRight(strings.TrimSpace(e), "/")
		if e != "" {
			eps = append(eps, e)
		}
	}
	return eps
}

// shardMap returns the shard map, first fetching it from the bootstrap
// endpoints when none has been tried since construction or since a
// redirect named a newer version. Nil (unsharded, legacy, or fetch
// failure) routes every call through the bootstrap list; a wrong_shard
// redirect still corrects the routing, so the fetch is a fast path,
// not a correctness requirement.
func (r *metaRouter) shardMap(ctx context.Context) *cluster.MetaShardMap {
	r.mu.Lock()
	if r.mapTried {
		m := r.smap
		r.mu.Unlock()
		return m
	}
	r.mapTried = true
	r.mu.Unlock()

	var fetched *cluster.MetaShardMap
	for _, ep := range r.boot {
		if !r.d.useV1(ep) {
			continue
		}
		if m, err := fetchShardMap(ctx, r.httpc, r.d, ep); err == nil {
			fetched = m
			break
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if fetched != nil && (r.smap == nil || fetched.Version >= r.smap.Version) {
		r.smap = fetched
	}
	return r.smap
}

// mapVersion is the version of the map held (0 when none), stamped
// into the X-MCS-Meta-Shard exchange header so servers can count
// skewed callers.
func (r *metaRouter) mapVersion() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.smap == nil {
		return 0
	}
	return r.smap.Version
}

// shardState returns (creating on first use) the routing state for a
// shard: seeded from the shard map's endpoint group, falling back to
// the bootstrap endpoints.
func (r *metaRouter) shardState(shard int) *metaShard {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ms, ok := r.shards[shard]; ok {
		return ms
	}
	eps := r.smap.Endpoints(shard)
	if len(eps) == 0 {
		eps = r.boot
	}
	ms := &metaShard{
		endpoints: append([]string(nil), eps...),
		health:    cluster.NewHealth(0, 0),
	}
	r.shards[shard] = ms
	return ms
}

// adoptAssignment folds a wrong_shard redirect's authoritative
// assignment into the router: the named shard's rotation is replaced
// with the owner group's endpoints, and a newer map version than ours
// schedules a shard-map fetch for the next call.
func (r *metaRouter) adoptAssignment(a *ShardAssignment) {
	if a == nil || len(a.Endpoints) == 0 {
		return
	}
	ms := r.shardState(a.Shard)
	ms.mu.Lock()
	ms.endpoints = append([]string(nil), a.Endpoints...)
	ms.preferred = ""
	ms.lastDisc = time.Time{}
	ms.mu.Unlock()
	r.mu.Lock()
	if r.smap == nil || a.MapVersion > r.smap.Version {
		r.mapTried = false
	}
	r.mu.Unlock()
}

// pick chooses the endpoint for a 1-based attempt: the known primary
// first when there is one, then the rest health-ordered (alive before
// tripped, rotation order inside each class), rotated by attempt so
// consecutive retries try different nodes.
func (ms *metaShard) pick(attempt int) string {
	ms.mu.Lock()
	eps := append([]string(nil), ms.endpoints...)
	pref := ms.preferred
	ms.mu.Unlock()
	var ordered []string
	if pref != "" {
		ordered = append(ordered, pref)
		for _, e := range eps {
			if e != pref {
				ordered = append(ordered, e)
			}
		}
		rest := ms.health.Order(ordered[1:])
		ordered = append(ordered[:1], rest...)
	} else {
		ordered = ms.health.Order(eps)
	}
	if len(ordered) == 0 {
		ordered = eps
	}
	return ordered[(attempt-1)%len(ordered)]
}

// demote reacts to a routing signal (standby rejection, fencing, or a
// stale epoch): ep moves to the back of the rotation and loses its
// preferred status, so the next attempt starts somewhere else.
func (ms *metaShard) demote(ep string) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	for i, e := range ms.endpoints {
		if e == ep {
			ms.endpoints = append(append(ms.endpoints[:i:i], ms.endpoints[i+1:]...), ep)
			break
		}
	}
	if ms.preferred == ep {
		ms.preferred = ""
	}
}

// prefer pins ep, which just completed a call, as the shard's primary.
func (ms *metaShard) prefer(ep string) {
	ms.mu.Lock()
	ms.preferred = ep
	ms.mu.Unlock()
}

// raiseEpoch lifts the highest epoch seen to e, reporting whether e is
// below it (a deposed primary still answering).
func (ms *metaShard) raiseEpoch(e uint64) (stale bool) {
	for {
		seen := ms.epochSeen.Load()
		if e <= seen {
			return e < seen
		}
		if ms.epochSeen.CompareAndSwap(seen, e) {
			return false
		}
	}
}

// observeEpochHeader folds a response's epoch stamp into the shard's
// view, reporting whether the serving endpoint is behind an epoch
// already seen.
func (ms *metaShard) observeEpochHeader(h http.Header) (stale bool) {
	e, err := strconv.ParseUint(h.Get(MetaEpochHeader), 10, 64)
	if err != nil {
		return false
	}
	return ms.raiseEpoch(e)
}

// Discover probes a shard's endpoints and prefers that shard's current
// primary (see probePrimary). Throttled per shard, so a burst of
// demotions costs one sweep. Returns the preferred endpoint, "" when
// none answered as a primary.
func (r *metaRouter) Discover(ctx context.Context, shard int) string {
	ms := r.shardState(shard)
	ms.mu.Lock()
	if time.Since(ms.lastDisc) < 500*time.Millisecond {
		pref := ms.preferred
		ms.mu.Unlock()
		return pref
	}
	ms.lastDisc = time.Now()
	eps := append([]string(nil), ms.endpoints...)
	ms.mu.Unlock()

	best, st, maxEpoch := probePrimary(ctx, r.httpc, eps)
	ms.raiseEpoch(maxEpoch)
	if best != "" {
		ms.prefer(best)
		ms.primaryEpoch.Store(st.Epoch)
	}
	return best
}

// call runs one metadata operation pinned to shard through rt's retry
// loop: each attempt POSTs in (JSON) to path on the endpoint the shard
// state picks, decorated by the caller's dialect, and applies the
// routing rules to the answer. out, when non-nil, receives the decoded
// 200 body. Attempt spans are children of parent named name.
func (r *metaRouter) call(ctx context.Context, rt retrier, budget *retryBudget, parent *tracing.Span, name string, shard int, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	r.shardMap(ctx) // the fetch a newer-map redirect scheduled
	var ms *metaShard
	ep := ""
	rotation := 0
	return rt.run(ctx, budget, parent, name,
		func() (*http.Request, error) {
			ms = r.shardState(shard)
			rotation++
			ep = ms.pick(rotation)
			v1 := r.d.useV1(ep)
			url := ep + path
			if v1 {
				url = ep + "/v1" + path
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				return nil, err
			}
			req.Header.Set("Content-Type", "application/json")
			if e := ms.epochSeen.Load(); e > 0 {
				req.Header.Set(MetaEpochHeader, strconv.FormatUint(e, 10))
			}
			if v1 {
				req.Header.Set(APIHeader, APIV1)
				req.Header.Set(MetaShardHeader, FormatMetaShard(shard, r.mapVersion()))
			}
			r.d.setIdentity(req)
			return req, nil
		},
		func(att *tracing.Span, resp *http.Response, err error) error {
			att.AnnotateInt("shard", int64(shard))
			att.Annotate("endpoint", ep)
			if err != nil {
				// A caller that gave up (hung-up client, expired
				// deadline) says nothing about the node's health.
				if ctx.Err() == nil {
					ms.health.ReportFailure(ep)
				}
				return err
			}
			defer resp.Body.Close()
			if r.d.checkLegacy(ep, resp) {
				io.Copy(io.Discard, resp.Body)
				return errLegacyRetry
			}
			// Any HTTP response means the node is up — even a 503
			// standby rejection (routing, not node health).
			ms.health.ReportSuccess(ep)
			stale := ms.observeEpochHeader(resp.Header)
			if resp.StatusCode != http.StatusOK {
				err = decodeError(resp)
			} else if out != nil {
				if derr := json.NewDecoder(resp.Body).Decode(out); derr != nil {
					// A JSON body cut off mid-stream means the
					// connection died under us; safe to retry.
					err = &corruptError{err: derr}
				}
			}
			var ae *APIError
			switch {
			case errors.Is(err, ErrWrongShard) && errors.As(err, &ae) && ae.Assignment != nil:
				// The group we hold for this shard is not the owner:
				// adopt the assignment and follow the redirect, so
				// later attempts route (and stamp the exchange header)
				// for the owner shard from the head of its rotation.
				r.adoptAssignment(ae.Assignment)
				att.Annotate("redirect", fmt.Sprintf("shard %d", ae.Assignment.Shard))
				shard, rotation = ae.Assignment.Shard, 0
			case stale || errors.Is(err, ErrNotPrimary) || errors.Is(err, ErrFenced):
				// The node answered but is not (or no longer) the
				// shard's primary: demote it, rediscover where the
				// primary went, and restart the rotation there.
				ms.demote(ep)
				r.Discover(ctx, shard)
				att.Annotate("demoted", ep)
				rotation = 0
			case err == nil:
				ms.prefer(ep)
			}
			return err
		})
}

// getMetaJSON reads one /v1 metadata-plane resource from base into
// out; d sees the response first, so a legacy host can be marked.
func getMetaJSON(ctx context.Context, httpc *http.Client, d metaDialect, base, path string, out interface{}) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1"+path, nil)
	if err != nil {
		return err
	}
	req.Header.Set(APIHeader, APIV1)
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if d.checkLegacy(base, resp) || resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fetchWALStatus reads a metadata node's /v1/meta/wal/status.
func fetchWALStatus(ctx context.Context, httpc *http.Client, base string) (MetaWALStatus, error) {
	var st MetaWALStatus
	err := getMetaJSON(ctx, httpc, v1Dialect{}, base, "/meta/wal/status", &st)
	return st, err
}

// fetchShardMap reads the versioned shard map from one endpoint.
func fetchShardMap(ctx context.Context, httpc *http.Client, d metaDialect, base string) (*cluster.MetaShardMap, error) {
	var m cluster.MetaShardMap
	if err := getMetaJSON(ctx, httpc, d, base, "/meta/shards", &m); err != nil {
		return nil, err
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("storage: %s served an empty shard map", base)
	}
	return &m, nil
}

// probePrimary asks each endpoint of a shard group for its WAL status
// (one second each) and returns the group's current primary: the
// non-standby, non-fenced node with the highest (epoch, last_seq),
// with its status; "" when none qualifies. maxEpoch is the highest
// epoch any endpoint reported.
func probePrimary(ctx context.Context, httpc *http.Client, eps []string) (primary string, st MetaWALStatus, maxEpoch uint64) {
	for _, ep := range eps {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		s, err := fetchWALStatus(pctx, httpc, ep)
		cancel()
		if err != nil {
			continue
		}
		maxEpoch = max(maxEpoch, s.Epoch)
		if s.Standby || s.Fenced {
			continue
		}
		if primary == "" || s.Epoch > st.Epoch || (s.Epoch == st.Epoch && s.LastSeq > st.LastSeq) {
			primary, st = ep, s
		}
	}
	return primary, st, maxEpoch
}

// RemoteMeta implements MetaService against a metadata plane running
// in other processes, so a clustered front-end node without a
// colocated metadata server can still commit uploads and resolve
// retrievals. It is a metaRouter speaking plain /v1 (see metaRouter
// for routing and failover) plus the /meta/commit and /meta/lookup
// calls; the typed /v1 error envelope is decoded, so sentinel checks
// (errors.Is(err, ErrNotFound)) behave exactly as with a local
// *Metadata. Requests carry the caller's ctx, and each attempt is a
// span under the ctx's trace (component meta, named after the call)
// whose headers ride the request, so the metadata server's handler
// span joins under the caller's trace.
type RemoteMeta struct {
	*metaRouter
	retry RetryPolicy

	rngMu sync.Mutex
	rng   *randx.Source
}

// DefaultMetaRetry shapes RemoteMeta's persistence: enough attempts
// and delay headroom to span a metadata-node restart (a few seconds),
// with short per-attempt deadlines so a dead node is detected fast.
var DefaultMetaRetry = RetryPolicy{
	MaxAttempts:    8,
	BaseDelay:      50 * time.Millisecond,
	MaxDelay:       2 * time.Second,
	Multiplier:     2,
	Jitter:         0.5,
	RequestTimeout: 5 * time.Second,
}

// NewRemoteMeta returns a MetaService talking to the metadata servers
// listed in baseURL — a comma-separated list, primary first, standbys
// after. The whole list is one shard group (the unsharded
// deployment); use NewShardedRemoteMeta for a sharded plane. httpc
// may be nil for a shared default with sane timeouts.
func NewRemoteMeta(baseURL string, httpc *http.Client) *RemoteMeta {
	return newRemoteMeta(splitEndpoints(baseURL), nil, httpc)
}

// NewShardedRemoteMeta returns a MetaService routing across the shard
// groups of the given map (the -metashards wiring). Each shard's
// endpoint list seeds that shard's rotation.
func NewShardedRemoteMeta(smap *cluster.MetaShardMap, httpc *http.Client) *RemoteMeta {
	return newRemoteMeta(smap.Endpoints(0), smap, httpc)
}

func newRemoteMeta(boot []string, smap *cluster.MetaShardMap, httpc *http.Client) *RemoteMeta {
	if httpc == nil {
		httpc = defaultHTTPClient
	}
	return &RemoteMeta{
		metaRouter: newMetaRouter(boot, smap, true, httpc, v1Dialect{}),
		retry:      DefaultMetaRetry,
		rng:        randx.Derive(0, "remotemeta"),
	}
}

// SetRetry overrides the retry policy and jitter seed (tests, tuning).
func (m *RemoteMeta) SetRetry(pol RetryPolicy, seed uint64) {
	m.retry = pol.withDefaults()
	m.rngMu.Lock()
	m.rng = randx.Derive(seed, "remotemeta")
	m.rngMu.Unlock()
}

func (m *RemoteMeta) jitterDraw() float64 {
	m.rngMu.Lock()
	defer m.rngMu.Unlock()
	return m.rng.Float64()
}

// Summary assembles the metadata-shard half of /v1/cluster/info from
// this router's view: shard count and map version from its map, each
// shard's primary from its (throttled) discovery sweep.
func (m *RemoteMeta) Summary(ctx context.Context) *MetaShardSummary {
	smap := m.shardMap(ctx)
	sum := &MetaShardSummary{Shards: smap.NumShards()}
	if smap != nil {
		sum.MapVersion = smap.Version
	}
	for i := 0; i < sum.Shards; i++ {
		pref := m.Discover(ctx, i)
		sum.ShardInfo = append(sum.ShardInfo, MetaShardInfo{
			Shard:   i,
			Primary: pref,
			Epoch:   m.shardState(i).primaryEpoch.Load(),
		})
	}
	return sum
}

// post runs one metadata call with RemoteMeta's policy, its attempt
// spans under the caller's trace.
func (m *RemoteMeta) post(ctx context.Context, op string, shard int, path string, in, out interface{}) error {
	rt := retrier{httpc: m.httpc, pol: m.retry, comp: tracing.CompMeta, jitter: m.jitterDraw}
	return m.call(ctx, rt, nil, tracing.FromContext(ctx), op, shard, path, in, out)
}

// Commit implements MetaService.
func (m *RemoteMeta) Commit(shard int, url string, chunkMD5s []Sum) error {
	return m.CommitCtx(context.Background(), shard, url, chunkMD5s)
}

// CommitCtx is Commit with trace propagation and cancellation.
func (m *RemoteMeta) CommitCtx(ctx context.Context, shard int, url string, chunkMD5s []Sum) error {
	return m.post(ctx, "meta-commit", shard, "/meta/commit",
		CommitRequest{Shard: shard, URL: url, ChunkMD5s: sumStrings(chunkMD5s)}, nil)
}

// Lookup implements MetaService.
func (m *RemoteMeta) Lookup(shard int, sum Sum) (FileMeta, error) {
	return m.LookupCtx(context.Background(), shard, sum)
}

// LookupCtx is Lookup with trace propagation and cancellation.
func (m *RemoteMeta) LookupCtx(ctx context.Context, shard int, sum Sum) (FileMeta, error) {
	var resp LookupResponse
	if err := m.post(ctx, "meta-lookup", shard, "/meta/lookup",
		LookupRequest{Shard: shard, FileMD5: sum.String()}, &resp); err != nil {
		return FileMeta{}, err
	}
	fileSum, err := ParseSum(resp.FileMD5)
	if err != nil {
		return FileMeta{}, fmt.Errorf("storage: remote meta returned bad file digest: %w", err)
	}
	chunks, err := parseSums(resp.ChunkMD5s)
	if err != nil {
		return FileMeta{}, fmt.Errorf("storage: remote meta returned bad chunk digest: %w", err)
	}
	return FileMeta{
		Name:      resp.Name,
		Size:      resp.Size,
		FileMD5:   fileSum,
		ChunkMD5s: chunks,
		URL:       resp.URL,
	}, nil
}
