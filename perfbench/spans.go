package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/storage"
)

// The traced run measures each layer from outside: the benchmark wraps
// the public entry points of every layer (the clients' RoundTripper,
// the front-end and metadata handlers, ChunkStore and MetaService) and
// records a span per call. Spans stay in memory until the run ends.

// spanHeader carries the client-side span id to the server handler.
// The program ignores it; the handler middleware reads it to link the
// server span to the request span.
const spanHeader = "X-Perfbench-Span"

// span is one timed call at a layer boundary.
type span struct {
	id, parent uint64
	name       string // layer.kind, e.g. "rt.bin_put", "fe.op_store", "cs.put"
	start, end int64  // ns since the recorder's epoch
	bytes      int64  // body or chunk bytes the call moved
}

func (s span) iv() interval { return interval{s.start, s.end} }

// recorder collects spans. A nil recorder records nothing. The
// generator runs one file operation at a time, so the operation span
// currently in flight (cur) and the front-end's current metadata-client
// call (curMeta) are unambiguous parents for requests whose context
// does not carry one.
type recorder struct {
	epoch   time.Time
	next    atomic.Uint64
	cur     atomic.Uint64
	curMeta atomic.Uint64
	byChunk sync.Map // storage.Sum -> parent span id (replica fan-out)

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops the spans recorded so far.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

type ctxKey struct{}

func withSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

func spanFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(ctxKey{}).(uint64)
	return id
}

// timed runs f as a span named name under parent.
func (r *recorder) timed(name string, parent uint64, bytes int64, f func(id uint64)) {
	id := r.newID()
	s := span{id: id, parent: parent, name: name, start: r.now(), bytes: bytes}
	f(id)
	s.end = r.now()
	r.add(s)
}

// --- client side: RoundTripper ---------------------------------------

// roundTripper times every request a client, a RemoteMeta or a
// ReplicatedStore sends, from the call until its response body is
// drained, and counts requests even when no recorder is attached.
type roundTripper struct {
	base http.RoundTripper
	rec  *recorder
	// parent picks the span a request belongs to when its context
	// carries none.
	parent func(req *http.Request) uint64
	reqs   *atomic.Int64
	// routes, when set, counts requests per route name.
	routes *routeCounts
}

// routeCounts counts requests per route.
type routeCounts struct{ m sync.Map } // route name -> *atomic.Int64

func (rc *routeCounts) add(route string) {
	v, ok := rc.m.Load(route)
	if !ok {
		v, _ = rc.m.LoadOrStore(route, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(1)
}

func (rc *routeCounts) snapshot() map[string]int64 {
	out := map[string]int64{}
	rc.m.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t.reqs.Add(1)
	if t.routes != nil {
		t.routes.add(routeName(req.Method, req.URL.Path))
	}
	if t.rec == nil {
		return t.base.RoundTrip(req)
	}
	parent := spanFrom(req.Context())
	if parent == 0 && t.parent != nil {
		parent = t.parent(req)
	}
	id := t.rec.newID()
	name := routeName(req.Method, req.URL.Path)
	if req.Header.Get("X-MCS-Replica") != "" {
		name = "replica_" + name
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	s := &span{id: id, parent: parent, name: "rt." + name, start: t.rec.now()}
	if req.ContentLength > 0 {
		s.bytes = req.ContentLength
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = t.rec.now()
		t.rec.add(*s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// spanBody ends its request span when the body is drained or closed,
// so streamed downloads count in full.
type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    *span
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.bytes += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.end = b.rec.now()
		b.rec.add(*b.s)
	})
}

// replicaParent links a ReplicatedStore's sub-request to the
// replicated Put/Get that issued it, by the chunk digest in the path
// (JSON dialect) or in the first frame of the body (binary dialect).
func (r *recorder) replicaParent(req *http.Request) uint64 {
	var sum storage.Sum
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/chunk/"):
		s, err := storage.ParseSum(strings.TrimPrefix(p, "/v1/chunk/"))
		if err != nil {
			return 0
		}
		sum = s
	case req.GetBody != nil:
		body, err := req.GetBody()
		if err != nil {
			return 0
		}
		var head [4 + 16]byte // frame count, then the first frame's digest
		_, err = io.ReadFull(body, head[:])
		body.Close()
		if err != nil {
			return 0
		}
		copy(sum[:], head[4:])
	default:
		return 0
	}
	if v, ok := r.byChunk.Load(sum); ok {
		return v.(uint64)
	}
	return 0
}

// routeName names a request by its API route.
func routeName(method, path string) string {
	path = strings.TrimPrefix(path, "/v1")
	switch {
	case strings.HasPrefix(path, "/meta/"):
		return strings.ReplaceAll(strings.TrimPrefix(path, "/meta/"), "-", "_")
	case strings.HasPrefix(path, "/chunk/"):
		if method == http.MethodGet {
			return "chunk_get"
		}
		return "chunk_put"
	case path == "/bin/put":
		return "bin_put"
	case path == "/bin/get":
		return "bin_get"
	case path == "/op/store":
		return "op_store"
	case path == "/op/retrieve":
		return "op_retrieve"
	case path == "/op/stat":
		return "op_stat"
	case path == "/cluster/info":
		return "cluster_info"
	}
	return "other"
}

// --- server side: handler middleware -----------------------------------

// handlerStats counts requests a handler served; replica counts the
// cluster-internal ones (X-MCS-Replica).
type handlerStats struct {
	replicaPut, replicaGet atomic.Int64
}

// middleware wraps a front-end or metadata handler: it records a span
// per request, parented by the client span named in spanHeader, and
// hands the span to the layers below through r.Context().
func middleware(rec *recorder, layer string, hs *handlerStats, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeName(r.Method, r.URL.Path)
		if r.Header.Get("X-MCS-Replica") != "" {
			switch route {
			case "chunk_put", "bin_put":
				hs.replicaPut.Add(1)
			case "chunk_get", "bin_get":
				hs.replicaGet.Add(1)
			}
			route = "replica_" + route
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		bytes := r.ContentLength
		if bytes < 0 {
			bytes = 0
		}
		rec.timed(layer+"."+route, parent, bytes, func(id uint64) {
			h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), id)))
		})
	})
}

// clusterInfo answers GET /v1/cluster/info with the placement of the
// ReplicatedStore behind a traced front-end. The front-end reads its
// placement by type-asserting its Store to *ReplicatedStore, which the
// decorator is not; without this the clients would learn no ring and
// route every chunk through one front-end, a different code path.
func clusterInfo(rs *storage.ReplicatedStore, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster/info" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		body := rec.Body.Bytes()
		var info storage.ClusterInfo
		if rec.Code == http.StatusOK && json.Unmarshal(body, &info) == nil {
			real := rs.Info()
			real.Meta = info.Meta
			if b, err := json.Marshal(real); err == nil {
				body = append(b, '\n')
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// --- ChunkStore decorator ----------------------------------------------

// tracedStore records a span around every call into the wrapped
// ChunkStore. It forwards every optional interface the front-end
// looks for (CtxStore, ReaderStore, MultiHaser, Ranger), falling back
// exactly as the storage package does when the wrapped store lacks
// one, so wrapping never changes the code path.
type tracedStore struct {
	inner storage.ChunkStore
	rec   *recorder
	layer string // "cs", "cache" or "repl"
	// byChunk registers in-flight puts and gets by digest, so replica
	// sub-requests find their parent (set on the replication layer).
	byChunk bool
}

func (s *tracedStore) call(ctx context.Context, kind string, sum storage.Sum, n int64, f func(ctx context.Context)) {
	s.rec.timed(s.layer+"."+kind, spanFrom(ctx), n, func(id uint64) {
		if s.byChunk {
			s.rec.byChunk.Store(sum, id)
			defer s.rec.byChunk.Delete(sum)
		}
		f(withSpan(ctx, id))
	})
}

func (s *tracedStore) Put(sum storage.Sum, data []byte) error {
	return s.PutCtx(context.Background(), sum, data)
}

func (s *tracedStore) PutCtx(ctx context.Context, sum storage.Sum, data []byte) (err error) {
	s.call(ctx, "put", sum, int64(len(data)), func(ctx context.Context) {
		err = storage.PutCtx(ctx, s.inner, sum, data)
	})
	return err
}

func (s *tracedStore) Get(sum storage.Sum) ([]byte, error) {
	return s.GetCtx(context.Background(), sum)
}

func (s *tracedStore) GetCtx(ctx context.Context, sum storage.Sum) (data []byte, err error) {
	s.call(ctx, "get", sum, 0, func(ctx context.Context) {
		data, err = storage.GetCtx(ctx, s.inner, sum)
	})
	return data, err
}

func (s *tracedStore) GetReaderCtx(ctx context.Context, sum storage.Sum) (rd *storage.ChunkReader, err error) {
	s.call(ctx, "get", sum, 0, func(ctx context.Context) {
		rd, err = storage.GetReader(ctx, s.inner, sum)
	})
	return rd, err
}

func (s *tracedStore) Has(sum storage.Sum) bool { return s.inner.Has(sum) }

func (s *tracedStore) MultiHas(sums []storage.Sum) []bool {
	if mh, ok := s.inner.(storage.MultiHaser); ok {
		return mh.MultiHas(sums)
	}
	out := make([]bool, len(sums))
	for i, sum := range sums {
		out[i] = s.inner.Has(sum)
	}
	return out
}

func (s *tracedStore) Stats() storage.StoreStats { return s.inner.Stats() }

func (s *tracedStore) Range(f func(sum storage.Sum, size int64) bool) {
	if rg, ok := s.inner.(storage.Ranger); ok {
		rg.Range(f)
	}
}

// --- MetaService decorator ---------------------------------------------

// ctxMeta is the context-aware MetaService both *Metadata and
// *RemoteMeta implement.
type ctxMeta interface {
	storage.MetaService
	CommitCtx(ctx context.Context, shard int, url string, chunkMD5s []storage.Sum) error
	LookupCtx(ctx context.Context, shard int, sum storage.Sum) (storage.FileMeta, error)
}

// tracedMeta records a span around every Commit and Lookup. As the
// front-end's metadata client it also publishes its span as the
// parent of the requests a RemoteMeta sends.
type tracedMeta struct {
	inner ctxMeta
	rec   *recorder
	layer string // "metasvc" (in-process Metadata) or "metaclient" (RemoteMeta)
}

func (m *tracedMeta) Commit(shard int, url string, chunkMD5s []storage.Sum) error {
	return m.CommitCtx(context.Background(), shard, url, chunkMD5s)
}

func (m *tracedMeta) CommitCtx(ctx context.Context, shard int, url string, chunkMD5s []storage.Sum) (err error) {
	m.rec.timed(m.layer+".commit", spanFrom(ctx), 0, func(id uint64) {
		m.rec.curMeta.Store(id)
		err = m.inner.CommitCtx(withSpan(ctx, id), shard, url, chunkMD5s)
	})
	return err
}

func (m *tracedMeta) Lookup(shard int, sum storage.Sum) (storage.FileMeta, error) {
	return m.LookupCtx(context.Background(), shard, sum)
}

func (m *tracedMeta) LookupCtx(ctx context.Context, shard int, sum storage.Sum) (fm storage.FileMeta, err error) {
	m.rec.timed(m.layer+".lookup", spanFrom(ctx), 0, func(id uint64) {
		m.rec.curMeta.Store(id)
		fm, err = m.inner.LookupCtx(withSpan(ctx, id), shard, sum)
	})
	return fm, err
}
