package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/cluster"
)

// fastMetaRetry keeps RemoteMeta tests quick.
var fastMetaRetry = RetryPolicy{
	MaxAttempts:    6,
	BaseDelay:      time.Millisecond,
	MaxDelay:       5 * time.Millisecond,
	Multiplier:     2,
	Jitter:         0.5,
	RequestTimeout: 2 * time.Second,
}

// TestRemoteMetaRetriesTransients: 503s (with Retry-After) are retried
// until the server recovers; the commit lands exactly once.
func TestRemoteMetaRetriesTransients(t *testing.T) {
	meta := NewMetadata("fe")
	data := testChunk(50, 1)
	resp, err := meta.StoreCheck(StoreCheckRequest{UserID: 1, Name: "r", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	inner := meta.Handler()
	var attempts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeAPIError(w, r, http.StatusServiceUnavailable, ErrUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rm := NewRemoteMeta(srv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)
	if err := rm.Commit(0, resp.URL, SplitSums(data)); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if _, err := meta.Lookup(0, SumBytes(data)); err != nil {
		t.Fatalf("commit did not land: %v", err)
	}
}

// TestRemoteMetaNoRetryOnNotFound: a 404 envelope unwraps to
// ErrNotFound and is terminal — exactly one attempt.
func TestRemoteMetaNoRetryOnNotFound(t *testing.T) {
	meta := NewMetadata("fe")
	var attempts atomic.Int64
	inner := meta.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rm := NewRemoteMeta(srv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)
	if err := rm.Commit(0, "/f/unknown/1", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (4xx must not retry)", got)
	}
}

// TestRemoteMetaDeadline: a hung server trips the per-attempt deadline
// instead of blocking the front-end forever.
func TestRemoteMetaDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	rm := NewRemoteMeta(srv.URL, &http.Client{})
	pol := fastMetaRetry
	pol.MaxAttempts = 2
	pol.RequestTimeout = 50 * time.Millisecond
	rm.SetRetry(pol, 1)
	start := time.Now()
	err := rm.Commit(0, "/f/x/1", nil)
	if err == nil {
		t.Fatal("commit against hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline did not fire: took %v", elapsed)
	}
}

// TestRemoteMetaFailover: with a dead endpoint listed first, attempts
// rotate to the live one; once the breaker trips, the live endpoint is
// tried first and a single round trip suffices.
func TestRemoteMetaFailover(t *testing.T) {
	meta := NewMetadata("fe")
	live := httptest.NewServer(meta.Handler())
	defer live.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	rm := NewRemoteMeta(deadURL+","+live.URL, &http.Client{})
	rm.SetRetry(fastMetaRetry, 1)

	data := testChunk(51, 1)
	resp, err := meta.StoreCheck(StoreCheckRequest{UserID: 1, Name: "f", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Commit(0, resp.URL, SplitSums(data)); err != nil {
		t.Fatalf("failover commit: %v", err)
	}
	if f, err := rm.Lookup(0, SumBytes(data)); err != nil || f.URL != resp.URL {
		t.Fatalf("failover lookup: %+v %v", f, err)
	}
}

// TestRemoteMetaStandbyRouting: a write that first lands on a standby
// is bounced with a retryable 503 and retried until it reaches the
// primary — the failover path a metadata-node kill exercises.
func TestRemoteMetaStandbyRouting(t *testing.T) {
	primary := NewMetadata("fe")
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()

	standby := NewMetadata("fe")
	standby.SetStandby(psrv.URL)
	ssrv := httptest.NewServer(standby.Handler())
	defer ssrv.Close()

	// Standby listed first: the write bounces there, then rotates.
	rm := NewRemoteMeta(ssrv.URL+","+psrv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)

	data := testChunk(52, 1)
	resp, err := primary.StoreCheck(StoreCheckRequest{UserID: 1, Name: "s", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Commit(0, resp.URL, SplitSums(data)); err != nil {
		t.Fatalf("commit through standby bounce: %v", err)
	}
	if _, err := primary.Lookup(0, SumBytes(data)); err != nil {
		t.Fatalf("commit did not land on primary: %v", err)
	}
}

// TestRemoteMetaCallerCancelKeepsPrimary: a caller that gives up
// mid-request (a device hanging up on the front-end) says nothing
// about the metadata node, so it must not trip the node's breaker. A
// healthy but slow primary listed first must still be the next call's
// first stop, not the standby behind it.
func TestRemoteMetaCallerCancelKeepsPrimary(t *testing.T) {
	primary := NewMetadata("fe")
	inner := primary.Handler()
	priSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(200 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer priSrv.Close()
	standby := NewMetadata("fe")
	standby.SetStandby(priSrv.URL)
	var stbPosts atomic.Int64
	stbSrv := httptest.NewServer(countPosts(standby.Handler(), &stbPosts))
	defer stbSrv.Close()

	rm := NewRemoteMeta(priSrv.URL+","+stbSrv.URL, nil)
	rm.SetRetry(fastMetaRetry, 1)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		err := rm.CommitCtx(ctx, 0, "/f/x/1", nil)
		cancel()
		if err == nil {
			t.Fatal("commit outlived its caller's 20 ms deadline")
		}
	}

	data := testChunk(53, 1)
	resp, err := primary.StoreCheck(StoreCheckRequest{UserID: 1, Name: "c", Size: int64(len(data)), FileMD5: SumBytes(data).String()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rm.Commit(0, resp.URL, SplitSums(data)); err != nil {
		t.Fatal(err)
	}
	if n := stbPosts.Load(); n != 0 {
		t.Fatalf("standby took %d POSTs: caller cancellations tripped the primary's breaker", n)
	}
}

// routerUser owns the content TestMetaRouterCallers seeds.
const routerUser = 7

// routerEnv is one metadata group a router scenario runs against.
type routerEnv struct {
	boot  string                // the caller's endpoint list
	smap  *cluster.MetaShardMap // RemoteMeta's map (nil: unsharded)
	shard int                   // shard RemoteMeta pins its calls to
	user  uint64
	data  []byte                   // content every node already holds
	url   string                   // its URL
	owner *Metadata                // the node writes must land on
	posts map[string]*atomic.Int64 // metadata POSTs per node
}

// newRouterPair boots a durable primary ("old") with a pulling standby
// ("new"), one front-end, and data stored by routerUser through the
// primary and replicated to the standby. The front-end resolves
// through a RemoteMeta over both nodes when remoteFE is set, else
// in-process on the primary.
func newRouterPair(t *testing.T, data []byte, remoteFE bool) (*routerEnv, *Metadata, *Metadata, *MetaStandby) {
	t.Helper()
	old := openDurableMeta(t, t.TempDir())
	neu := openDurableMeta(t, t.TempDir())
	env := &routerEnv{user: routerUser, data: data, owner: old,
		posts: map[string]*atomic.Int64{"old": {}, "new": {}}}
	oldSrv := httptest.NewServer(countPosts(old.Handler(), env.posts["old"]))
	t.Cleanup(oldSrv.Close)
	neuSrv := httptest.NewServer(countPosts(neu.Handler(), env.posts["new"]))
	t.Cleanup(neuSrv.Close)
	env.boot = oldSrv.URL + "," + neuSrv.URL

	var feMeta MetaService = old
	if remoteFE {
		rm := NewRemoteMeta(env.boot, nil)
		rm.SetRetry(fastMetaRetry, 1)
		feMeta = rm
	}
	feSrv := httptest.NewServer(NewFrontEnd(FrontEndConfig{Store: NewMemStore(), Meta: feMeta}).Handler())
	t.Cleanup(feSrv.Close)
	old.AddFrontEnd(feSrv.URL)
	neu.AddFrontEnd(feSrv.URL)

	puller := NewMetaStandby(neu, oldSrv.URL, nil, 5*time.Millisecond)
	puller.Start()
	t.Cleanup(puller.Close)
	pol := fastRetry
	res, err := (&Client{MetaURL: oldSrv.URL, UserID: routerUser, Retry: &pol}).StoreFile("seed.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	env.url = res.URL
	waitFor(t, "standby catch-up", func() bool { return neu.LastSeq() == old.LastSeq() })
	return env, old, neu, puller
}

// promote fails the pair over: the standby takes epoch 1.
func promote(t *testing.T, neu *Metadata, puller *MetaStandby) {
	t.Helper()
	puller.Close()
	if err := neu.PromoteEpoch(); err != nil {
		t.Fatal(err)
	}
}

// routerCaller drives one scenario through Client or RemoteMeta.
type routerCaller struct {
	write func() error // Client.StoreFile (a dedup) / RemoteMeta.CommitCtx
	read  func() error // Client.RetrieveFile / RemoteMeta.LookupCtx
	prime func()       // the caller has already seen epoch 1
}

func clientCaller(env *routerEnv) routerCaller {
	pol := fastRetry
	c := &Client{MetaURL: env.boot, UserID: env.user, Retry: &pol}
	return routerCaller{
		write: func() error {
			res, err := c.StoreFile("again.bin", env.data)
			if err == nil && !res.Deduplicated {
				err = fmt.Errorf("store did not dedup onto the seeded content: %+v", res)
			}
			return err
		},
		read: func() error {
			got, err := c.RetrieveFile(env.url)
			if err == nil && !bytes.Equal(got, env.data) {
				err = errors.New("retrieved bytes differ from the stored file")
			}
			return err
		},
		prime: func() { c.metaRouter().shardState(0).raiseEpoch(1) },
	}
}

func remoteCaller(env *routerEnv) routerCaller {
	rm := NewRemoteMeta(env.boot, nil)
	if env.smap != nil {
		rm = NewShardedRemoteMeta(env.smap, nil)
	}
	rm.SetRetry(fastMetaRetry, 1)
	n := 0
	return routerCaller{
		write: func() error {
			n++
			data := testChunk(54, n)
			sc, err := env.owner.StoreCheck(StoreCheckRequest{UserID: env.user, Name: fmt.Sprintf("rm-%d", n),
				Size: int64(len(data)), FileMD5: SumBytes(data).String()})
			if err != nil {
				return err
			}
			return rm.CommitCtx(context.Background(), env.shard, sc.URL, SplitSums(data))
		},
		read: func() error {
			f, err := rm.LookupCtx(context.Background(), env.shard, SumBytes(env.data))
			if err == nil && f.URL != env.url {
				err = fmt.Errorf("lookup URL = %q, want %q", f.URL, env.url)
			}
			return err
		},
		prime: func() { rm.shardState(0).raiseEpoch(1) },
	}
}

// TestMetaRouterCallers runs each routing scenario through both
// callers of the metadata router — Client (StoreFile/RetrieveFile) and
// RemoteMeta (CommitCtx/LookupCtx) — and checks the outcome and that
// the next call's first POST lands on the node the scenario taught the
// router about.
func TestMetaRouterCallers(t *testing.T) {
	scenarios := []struct {
		name  string
		read  bool
		prime bool
		setup func(t *testing.T) *routerEnv
		next  string // node the next call's POST must reach
	}{
		{name: "standby bounce", next: "old", setup: func(t *testing.T) *routerEnv {
			env, _, _, _ := newRouterPair(t, []byte("standby bounce"), false)
			eps := strings.Split(env.boot, ",")
			env.boot = eps[1] + "," + eps[0] // the standby listed first
			return env
		}},
		{name: "fenced deposed primary", next: "new", setup: func(t *testing.T) *routerEnv {
			env, old, neu, puller := newRouterPair(t, []byte("fenced primary"), false)
			promote(t, neu, puller)
			old.ObserveEpoch(neu.Epoch())
			env.owner = neu
			return env
		}},
		{name: "stale epoch header", read: true, prime: true, next: "new", setup: func(t *testing.T) *routerEnv {
			env, _, neu, puller := newRouterPair(t, []byte("stale epoch"), false)
			promote(t, neu, puller)
			return env
		}},
		{name: "wrong_shard redirect", next: "s1", setup: wrongShardEnv},
	}
	for _, sc := range scenarios {
		for _, cl := range []struct {
			name string
			make func(*routerEnv) routerCaller
		}{{"Client", clientCaller}, {"RemoteMeta", remoteCaller}} {
			t.Run(sc.name+"/"+cl.name, func(t *testing.T) {
				env := sc.setup(t)
				c := cl.make(env)
				op := c.write
				if sc.read {
					op = c.read
				}
				if sc.prime {
					c.prime()
				}
				if err := op(); err != nil {
					t.Fatal(err)
				}
				before := map[string]int64{}
				for node, n := range env.posts {
					before[node] = n.Load()
				}
				if err := op(); err != nil {
					t.Fatalf("next call: %v", err)
				}
				for node, n := range env.posts {
					want := int64(0)
					if node == sc.next {
						want = 1
					}
					if got := n.Load() - before[node]; got != want {
						t.Errorf("next call sent %d POSTs to %s, want %d", got, node, want)
					}
				}
			})
		}
	}
}

// wrongShardEnv is a two-shard plane whose shard-0 node still serves
// (and the caller holds) a map one version behind that points shard 1
// at shard 0's node.
func wrongShardEnv(t *testing.T) *routerEnv {
	env := &routerEnv{shard: 1, posts: map[string]*atomic.Int64{"s0": {}, "s1": {}}}
	meta0 := NewMetadata("http://fe.invalid")
	meta1 := NewMetadata("http://fe.invalid")
	var stale *cluster.MetaShardMap
	h0 := meta0.Handler()
	srv0 := httptest.NewServer(countPosts(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/meta/shards" {
			w.Header().Set(APIHeader, APIV1)
			json.NewEncoder(w).Encode(stale)
			return
		}
		h0.ServeHTTP(w, r)
	}), env.posts["s0"]))
	t.Cleanup(srv0.Close)
	srv1 := httptest.NewServer(countPosts(meta1.Handler(), env.posts["s1"]))
	t.Cleanup(srv1.Close)

	truth, err := cluster.NewMetaShardMap(2, [][]string{{srv0.URL}, {srv1.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if stale, err = cluster.NewMetaShardMap(1, [][]string{{srv0.URL}, {srv0.URL}}); err != nil {
		t.Fatal(err)
	}
	meta0.SetShard(0, truth)
	meta1.SetShard(1, truth)
	env.user = shardUser(t, truth, 1, nil)
	env.data = []byte("wrong shard payload")
	env.url = commitFor(t, meta1, 1, env.user, env.data)
	env.owner, env.smap, env.boot = meta1, stale, srv0.URL
	return env
}

// TestMetaRouterClientFailover: a Client configured with
// "primary,standby" and pinned to the primary rides through a
// promotion that fences the primary — its next store lands on the
// promoted standby (as do the front-end's commits, through its own
// RemoteMeta), every file stays retrievable, and from then on the
// client's first POST goes straight to the new primary.
func TestMetaRouterClientFailover(t *testing.T) {
	env, old, neu, puller := newRouterPair(t, []byte("before the failover"), true)
	pol := fastRetry
	c := &Client{MetaURL: env.boot, UserID: routerUser, Retry: &pol}
	if res, err := c.StoreFile("seed-again.bin", env.data); err != nil || !res.Deduplicated {
		t.Fatalf("pre-failover store: %+v %v", res, err)
	}

	promote(t, neu, puller)
	old.ObserveEpoch(neu.Epoch())
	after := chunkedData(t, 55, ChunkSize+99)
	res, err := c.StoreFile("after.bin", after)
	if err != nil {
		t.Fatalf("store across the failover: %v", err)
	}
	if _, err := neu.LookupURL(res.URL); err != nil {
		t.Fatalf("post-failover file not committed on the new primary: %v", err)
	}
	for url, want := range map[string][]byte{env.url: env.data, res.URL: after} {
		got, err := c.RetrieveFile(url)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("retrieve %s after failover: %v", url, err)
		}
	}

	oldPosts, newPosts := env.posts["old"].Load(), env.posts["new"].Load()
	if res, err := c.StoreFile("again.bin", after); err != nil || !res.Deduplicated {
		t.Fatalf("store after failover: %+v %v", res, err)
	}
	if d := env.posts["old"].Load() - oldPosts; d != 0 {
		t.Errorf("deposed primary took %d POSTs after the client learned of the failover", d)
	}
	if d := env.posts["new"].Load() - newPosts; d != 1 {
		t.Errorf("new primary took %d POSTs for one dedup store, want 1", d)
	}
}
