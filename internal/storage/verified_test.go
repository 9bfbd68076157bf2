package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcloud/internal/cluster"
	"mcloud/internal/metrics"
	"mcloud/internal/trace"
)

// binFrameOf is one encoded mcsbin/1 data frame.
func binFrameOf(sum Sum, data []byte) []byte { return binPutBody(sum, data, nil)[4:] }

// binBatch is a /v1/bin/put body carrying the given frames.
func binBatch(frames ...[]byte) []byte {
	body := appendBinCount(nil, len(frames))
	for _, f := range frames {
		body = append(body, f...)
	}
	return body
}

// serveChunkReq runs one request through h with no socket; replica
// marks it as cluster-internal traffic.
func serveChunkReq(h http.Handler, method, path string, body []byte, replica bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if replica {
		req.Header.Set(ReplicaHeader, "1")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// segmentBytes is the total size of dir's segment files.
func segmentBytes(t *testing.T, dir string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.mseg"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// TestVerifiedFrameCorruptionRejected sends damaged chunks through
// every upload path that feeds the verbatim append: each must be
// refused at the boundary check, and not one byte may reach the
// segment log.
func TestVerifiedFrameCorruptionRejected(t *testing.T) {
	ds, dir := newDiskStore(t, DiskStoreOptions{})
	h := NewFrontEnd(FrontEndConfig{Store: ds, Meta: NewMetadata()}).Handler()
	data := testChunk(81, 4)
	sum := SumBytes(data)

	// reseal recomputes the frame CRC over the (possibly edited)
	// header and payload, so only the MD5 check can catch the damage.
	reseal := func(f []byte) {
		n := binary.LittleEndian.Uint32(f[16:20])
		crc := crc32.ChecksumIEEE(f[:20])
		crc = crc32.Update(crc, crc32.IEEETable, f[recHeaderSize:recHeaderSize+int(n)])
		binary.LittleEndian.PutUint32(f[20:24], crc)
	}
	frames := map[string]func(f []byte){
		"payload-bitflip-crc-resealed": func(f []byte) { f[recHeaderSize+7] ^= 0x10; reseal(f) },
		"crc-mismatch":                 func(f []byte) { f[21] ^= 0x01 },
		"short-len-crc-resealed": func(f []byte) {
			binary.LittleEndian.PutUint32(f[16:20], uint32(len(data)-1))
			reseal(f)
		},
		"short-len":    func(f []byte) { binary.LittleEndian.PutUint32(f[16:20], uint32(len(data)-1)) },
		"oversize-len": func(f []byte) { binary.LittleEndian.PutUint32(f[16:20], ChunkSize+1) },
	}
	before := segmentBytes(t, dir)
	for name, damage := range frames {
		for _, replica := range []bool{false, true} {
			f := binFrameOf(sum, data)
			damage(f)
			rec := serveChunkReq(h, http.MethodPost, "/v1/bin/put", binBatch(f), replica)
			if rec.Code == http.StatusOK {
				t.Errorf("%s (replica=%v): damaged frame accepted", name, replica)
			}
		}
	}
	flipped := append([]byte(nil), data...)
	flipped[3] ^= 0x80
	for _, replica := range []bool{false, true} {
		rec := serveChunkReq(h, http.MethodPut, "/v1/chunk/"+sum.String(), flipped, replica)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("JSON chunk PUT (replica=%v) with a flipped bit: status %d, want 400", replica, rec.Code)
		}
	}
	if after := segmentBytes(t, dir); after != before {
		t.Fatalf("segment log grew from %d to %d bytes on rejected uploads", before, after)
	}
	if ds.Has(sum) {
		t.Fatal("damaged chunk is in the index")
	}

	// The intact frame still goes through.
	if rec := serveChunkReq(h, http.MethodPost, "/v1/bin/put", binBatch(binFrameOf(sum, data)), false); rec.Code != http.StatusOK {
		t.Fatalf("intact frame: status %d: %s", rec.Code, rec.Body)
	}
	if got, err := ds.Get(sum); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("intact frame reads back wrong: %v", err)
	}
}

// TestVerifiedRecordBinding checks that a verified record vouches only
// for the exact payload slice and digest it was minted for: a copy, a
// re-slice or another digest gets the full check.
func TestVerifiedRecordBinding(t *testing.T) {
	data := testChunk(82, 1)
	sum := SumBytes(data)
	buf := make([]byte, recHeaderSize+len(data))
	copy(buf[recHeaderSize:], data)
	rec, err := sealRecord(buf, sum, len(data))
	if err != nil {
		t.Fatal(err)
	}
	ctx := withVerifiedRecord(context.Background(), rec)
	payload := rec[recHeaderSize:]
	if verifiedRecord(ctx, sum, payload) == nil {
		t.Fatal("record does not vouch for its own payload")
	}
	cp := append([]byte(nil), payload...)
	other := SumBytes([]byte("other"))
	for name, ok := range map[string]bool{
		"copy":        verifiedRecord(ctx, sum, cp) != nil,
		"re-slice":    verifiedRecord(ctx, sum, payload[:len(payload)-1]) != nil,
		"other-sum":   verifiedRecord(ctx, other, payload) != nil,
		"no-record":   verifiedRecord(context.Background(), sum, payload) != nil,
		"empty-slice": verifiedRecord(ctx, sum, nil) != nil,
	} {
		if ok {
			t.Errorf("%s: verified record accepted", name)
		}
	}
	if _, err := sealRecord(buf, other, len(data)); err != errBadDigest {
		t.Fatalf("sealRecord under the wrong digest: err = %v", err)
	}

	// A corrupted copy under the record's context is caught by every
	// verifying store, because the binding does not hold for it.
	cp[0] ^= 1
	ds, _ := newDiskStore(t, DiskStoreOptions{})
	for name, s := range map[string]ChunkStore{"disk": ds, "mem": NewMemStore()} {
		if err := PutCtx(ctx, s, sum, cp); err != errBadDigest {
			t.Errorf("%s: corrupted copy under a verified context: err = %v, want errBadDigest", name, err)
		}
		if s.Has(sum) {
			t.Errorf("%s: corrupted copy stored", name)
		}
	}
}

// forwardOnly is a store decorator that, like a tracing wrapper,
// forwards nothing but PutCtx(ctx, sum, data) and GetCtx(ctx, sum);
// copying makes it pass a copy of the payload instead.
type forwardOnly struct {
	ChunkStore
	copying bool
}

func (f forwardOnly) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	if f.copying {
		data = append([]byte(nil), data...)
	}
	return PutCtx(ctx, f.ChunkStore, sum, data)
}

func (f forwardOnly) GetCtx(ctx context.Context, sum Sum) ([]byte, error) {
	data, err := GetCtx(ctx, f.ChunkStore, sum)
	if f.copying && err == nil {
		data = append([]byte(nil), data...)
	}
	return data, err
}

// TestVerifiedRecordThroughDecorators shows the record reaching the
// store through the cache and a forward-only decorator: a record the
// test forges (valid CRC, payload not matching its digest) is trusted
// there, which is observable only if the store skipped its own MD5.
// A decorator that copies the payload breaks the binding, and the
// store's full check refuses the same bytes.
func TestVerifiedRecordThroughDecorators(t *testing.T) {
	payload := testChunk(85, 2)
	claimed := SumBytes([]byte("some other content"))
	buf := make([]byte, recHeaderSize+len(payload))
	copy(buf[recHeaderSize:], payload)
	encodeHeader(buf[:recHeaderSize], claimed, uint32(len(payload)), payload)
	ctx := withVerifiedRecord(context.Background(), buf)

	for _, copying := range []bool{false, true} {
		ds, _ := newDiskStore(t, DiskStoreOptions{})
		stack := NewCachedStore(forwardOnly{ChunkStore: ds, copying: copying}, 1<<20)
		err := PutCtx(ctx, stack, claimed, buf[recHeaderSize:])
		if copying {
			if err != errBadDigest || ds.Has(claimed) {
				t.Fatalf("copied payload: err = %v, stored = %v; want the full check to refuse it", err, ds.Has(claimed))
			}
			continue
		}
		if err != nil || !ds.Has(claimed) {
			t.Fatalf("record did not reach the store through the decorators: err = %v", err)
		}
	}
}

// goldenChunks is the sequence testdata/diskstore-v1.mseg was written
// from: six testChunk(71, i) Puts and a Delete of the third, through
// DiskStore.Put before verified records existed.
func goldenChunks() (sums []Sum, chunks [][]byte) {
	for i := 0; i < 6; i++ {
		data := testChunk(71, i)
		sums = append(sums, SumBytes(data))
		chunks = append(chunks, data)
	}
	return sums, chunks
}

// TestDiskStoreVerbatimRecord checks that records appended verbatim
// from verified frames are byte for byte what DiskStore.Put writes —
// and what the segment format has always been (the golden file
// predates the verbatim append) — and that they survive reopen and
// the recovery scan.
func TestDiskStoreVerbatimRecord(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "diskstore-v1.mseg"))
	if err != nil {
		t.Fatal(err)
	}
	sums, chunks := goldenChunks()
	write := func(name string, put func(ds *DiskStore, h http.Handler, i int) error) string {
		dir := t.TempDir()
		ds, err := OpenDiskStore(dir, DiskStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		h := NewFrontEnd(FrontEndConfig{Store: ds, Meta: NewMetadata()}).Handler()
		for i := range chunks {
			if err := put(ds, h, i); err != nil {
				t.Fatalf("%s: chunk %d: %v", name, i, err)
			}
		}
		if err := ds.Delete(sums[2]); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatalf("%s: segment differs from the golden file (%d vs %d bytes)", name, len(got), len(golden))
		}
		return dir
	}
	status := func(rec *httptest.ResponseRecorder) error {
		if rec.Code != http.StatusOK {
			return &APIError{Status: rec.Code, Message: rec.Body.String()}
		}
		return nil
	}
	write("raw Put", func(ds *DiskStore, _ http.Handler, i int) error { return ds.Put(sums[i], chunks[i]) })
	write("JSON chunk PUT", func(_ *DiskStore, h http.Handler, i int) error {
		return status(serveChunkReq(h, http.MethodPut, "/v1/chunk/"+sums[i].String(), chunks[i], false))
	})
	dir := write("bin PUT", func(_ *DiskStore, h http.Handler, i int) error {
		return status(serveChunkReq(h, http.MethodPost, "/v1/bin/put", binBatch(binFrameOf(sums[i], chunks[i])), i%2 == 1))
	})

	ds, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	checkGoldenReadBack(t, ds, sums, chunks)
}

// TestDiskStoreReopenAcrossVersions opens a data directory written
// before verified records existed and reads every chunk back, then
// appends to it through the verified path and reopens again. Because
// the verified path writes the same bytes as the old encoder (see
// TestDiskStoreVerbatimRecord), a directory written now reads back
// under the old code too.
func TestDiskStoreReopenAcrossVersions(t *testing.T) {
	dir := t.TempDir()
	copyFile(t, filepath.Join("testdata", "diskstore-v1.mseg"), filepath.Join(dir, segName(0)))
	sums, chunks := goldenChunks()
	ds, err := OpenDiskStore(dir, DiskStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkGoldenReadBack(t, ds, sums, chunks)

	extra := testChunk(72, 3)
	xsum := SumBytes(extra)
	h := NewFrontEnd(FrontEndConfig{Store: ds, Meta: NewMetadata()}).Handler()
	if rec := serveChunkReq(h, http.MethodPost, "/v1/bin/put", binBatch(binFrameOf(xsum, extra)), false); rec.Code != http.StatusOK {
		t.Fatalf("bin PUT into the old directory: %d %s", rec.Code, rec.Body)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = OpenDiskStore(dir, DiskStoreOptions{}); err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	checkGoldenReadBack(t, ds, sums, chunks)
	if got, err := ds.Get(xsum); err != nil || !bytes.Equal(got, extra) {
		t.Fatalf("chunk appended after reopen: %v", err)
	}
}

// checkGoldenReadBack asserts ds holds the golden sequence: every
// chunk but the deleted third reads back intact, and the recovery scan
// found nothing torn.
func checkGoldenReadBack(t *testing.T, ds *DiskStore, sums []Sum, chunks [][]byte) {
	t.Helper()
	if tr := ds.DiskStats().Truncated; tr != 0 {
		t.Fatalf("recovery truncated %d bytes", tr)
	}
	for i, sum := range sums {
		got, err := ds.Get(sum)
		if i == 2 {
			if err != ErrNotFound {
				t.Fatalf("deleted chunk: err = %v", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, chunks[i]) {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
}

// TestReplicatedVerifiedRecords uploads through one node of an N=3
// cluster whose nodes keep DiskStores: the accepting node's local
// append and both remote owners' appends must be the same bytes a
// plain DiskStore.Put writes.
func TestReplicatedVerifiedRecords(t *testing.T) {
	const n = 3
	var peers []string
	handlers := make([]*switchHandler, n)
	for i := range handlers {
		handlers[i] = &switchHandler{}
		srv := httptest.NewServer(handlers[i])
		t.Cleanup(srv.Close)
		peers = append(peers, srv.URL)
	}
	dirs := make([]string, n)
	stores := make([]*DiskStore, n)
	var fes []http.Handler
	for i := range peers {
		stores[i], dirs[i] = newDiskStore(t, DiskStoreOptions{})
		rs, err := NewReplicatedStore(ReplicatedConfig{
			Self: peers[i], Peers: peers, Replicas: n, WriteQuorum: n,
			Local: stores[i], Health: cluster.NewHealth(1, 50*time.Millisecond), RepairEvery: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		fe := NewFrontEnd(FrontEndConfig{Store: rs, Local: stores[i], Meta: NewMetadata()}).Handler()
		handlers[i].set(fe)
		fes = append(fes, fe)
	}
	ref, refDir := newDiskStore(t, DiskStoreOptions{})
	for i := 0; i < 4; i++ {
		data := testChunk(83, i)
		sum := SumBytes(data)
		// The first chunk reaches peers over JSON (bin capability is
		// learned from their responses); later ones over mcsbin.
		if rec := serveChunkReq(fes[0], http.MethodPost, "/v1/bin/put", binBatch(binFrameOf(sum, data)), false); rec.Code != http.StatusOK {
			t.Fatalf("chunk %d: %d %s", i, rec.Code, rec.Body)
		}
		if err := ref.Put(sum, data); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(refDir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for i, dir := range dirs {
		got, err := os.ReadFile(filepath.Join(dir, segName(0)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("node %d: segment differs from a plain Put's (%d vs %d bytes)", i, len(got), len(want))
		}
	}
}

// TestForgedFileMD5CaughtOnRetrieve pins why RetrieveFile re-hashes
// the assembled file: it is the only check binding a file's FileMD5
// to its chunk list. Client A commits content X under the FileMD5 of
// different content Y of the same length; client B then stores Y, is
// deduplicated onto A's URL, and must get the hash-mismatch error
// from RetrieveFile — never X's bytes.
func TestForgedFileMD5CaughtOnRetrieve(t *testing.T) {
	a, _, _, _, cleanup := newTestService(t)
	defer cleanup()
	x := chunkedData(t, 91, ChunkSize+777)
	y := chunkedData(t, 92, len(x))
	url := storeForged(t, a, "x.bin", x, SumBytes(y))

	b := a.Clone()
	b.UserID = 43
	res, err := b.StoreFile("y.bin", y)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduplicated || res.URL != url {
		t.Fatalf("B's store: dedup=%v url=%q, want a dedup onto %q", res.Deduplicated, res.URL, url)
	}
	got, err := b.RetrieveFile(res.URL)
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("RetrieveFile of the forged file: err = %v, want the hash-mismatch error", err)
	}
	if got != nil {
		t.Fatalf("RetrieveFile returned %d bytes alongside the error", len(got))
	}
}

// TestForgedFileMD5OneChunkCaught is the forged-FileMD5 case for a
// one-chunk file, which RetrieveFile fetches on the sequential path and
// does not hash again: the getChunk-verified chunk digest must still
// equal FileMD5.
func TestForgedFileMD5OneChunkCaught(t *testing.T) {
	a, _, _, _, cleanup := newTestService(t)
	defer cleanup()
	x := chunkedData(t, 93, ChunkSize-777)
	y := chunkedData(t, 94, len(x))
	url := storeForged(t, a, "x.bin", x, SumBytes(y))

	b := a.Clone()
	b.UserID = 43
	res, err := b.StoreFile("y.bin", y)
	if err != nil || !res.Deduplicated || res.URL != url {
		t.Fatalf("B's store: %+v %v, want a dedup onto %q", res, err, url)
	}
	got, err := b.RetrieveFile(res.URL)
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") || got != nil {
		t.Fatalf("RetrieveFile of the forged file: %d bytes, err = %v; want the hash-mismatch error and no bytes", len(got), err)
	}
}

// storeForged runs StoreFile's protocol for content, declaring claimed
// as its FileMD5, and returns the committed URL.
func storeForged(t *testing.T, c *Client, name string, content []byte, claimed Sum) string {
	t.Helper()
	budget := c.newBudget()
	var check StoreCheckResponse
	if err := c.postMetaJSON(c.metaShardFor(c.UserID), "/meta/store-check", StoreCheckRequest{
		UserID: c.UserID, Name: name, Size: int64(len(content)), FileMD5: claimed.String(),
	}, &check, budget); err != nil {
		t.Fatal(err)
	}
	sums := SplitSums(content)
	strs := sumStrings(sums)
	byDigest := make(map[string]int, len(sums))
	for i, s := range strs {
		byDigest[s] = i
	}
	var op FileOpResponse
	if err := c.postJSON(check.FrontEnd, "/op/store?url="+check.URL, FileOpRequest{
		UserID: c.UserID, DeviceID: c.DeviceID, Device: trace.Android.String(), Name: name,
		Size: int64(len(content)), FileMD5: claimed.String(), ChunkMD5s: strs, Shard: check.Shard,
	}, &op, budget); err != nil {
		t.Fatal(err)
	}
	var res StoreResult
	if err := c.sendChunks(check.FrontEnd, check.URL, strs, byDigest, sums, content, budget, &res); err != nil {
		t.Fatal(err)
	}
	return check.URL
}

// flipStore serves its target digest with one payload bit flipped, as
// an in-memory reader, so the front-end seals a frame CRC over the
// flipped bytes and only an MD5 can catch them. flips is the number of
// reads still to corrupt.
type flipStore struct {
	ChunkStore
	target Sum
	flips  atomic.Int64
}

func (f *flipStore) GetReaderCtx(ctx context.Context, sum Sum) (*ChunkReader, error) {
	data, err := GetCtx(ctx, f.ChunkStore, sum)
	if err != nil || sum != f.target || f.flips.Add(-1) < 0 {
		return NewBytesReader(data), err
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x10
	return NewBytesReader(bad), nil
}

// TestRetrieveFlippedChunk: a chunk whose payload changed before the
// front-end framed it passes the frame CRC, so RetrieveFile must find
// it by the file hash. A one-off flip costs one per-chunk re-fetch
// (not a whole-batch retry) and the file comes back exact; a flip on
// every read fails the retrieve with no bytes. A one-chunk file,
// fetched and MD5-checked by getChunk, behaves the same.
func TestRetrieveFlippedChunk(t *testing.T) {
	for _, tc := range []struct {
		name       string
		size, bad  int
		binGets    int64 // bin GETs (one chunk each here) and JSON chunk GETs for a one-off flip
		chunkGets  int64
		persistent bool
	}{
		{name: "three chunks/once", size: 2*ChunkSize + 321, bad: 1, binGets: 3, chunkGets: 1},
		{name: "three chunks/always", size: 2*ChunkSize + 321, bad: 1, persistent: true},
		{name: "one chunk/once", size: ChunkSize - 5, chunkGets: 2},
		{name: "one chunk/always", size: ChunkSize - 5, persistent: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := &flipStore{ChunkStore: NewMemStore()}
			meta := NewMetadata()
			var binGets, chunkGets atomic.Int64
			fe := NewFrontEnd(FrontEndConfig{Store: fs, Meta: meta}).Handler()
			feSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/v1/bin/get":
					binGets.Add(1)
				case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/chunk/"):
					chunkGets.Add(1)
				}
				fe.ServeHTTP(w, r)
			}))
			defer feSrv.Close()
			metaSrv := httptest.NewServer(meta.Handler())
			defer metaSrv.Close()
			meta.AddFrontEnd(feSrv.URL)
			pol := fastRetry
			c := &Client{MetaURL: metaSrv.URL, UserID: 8, Retry: &pol, Metrics: NewClientMetrics(metrics.NewRegistry())}

			data := chunkedData(t, 97, tc.size)
			res, err := c.StoreFile("f.bin", data)
			if err != nil {
				t.Fatal(err)
			}
			fs.target = SplitSums(data)[tc.bad]
			fs.flips.Store(1)
			if tc.persistent {
				fs.flips.Store(1 << 30)
			}
			got, err := c.RetrieveFile(res.URL)
			if tc.persistent {
				if err == nil || got != nil {
					t.Fatalf("persistent flip: got %d bytes, err = %v; want an error and no bytes", len(got), err)
				}
				return
			}
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("one-off flip: err = %v, bytes equal = %v", err, bytes.Equal(got, data))
			}
			if n := c.Metrics.Stats().Refetches; n != 1 {
				t.Errorf("Refetches = %d, want 1", n)
			}
			if b, j := binGets.Load(), chunkGets.Load(); b != tc.binGets || j != tc.chunkGets {
				t.Errorf("bin GETs %d, JSON chunk GETs %d; want %d and %d", b, j, tc.binGets, tc.chunkGets)
			}
		})
	}
}

// TestCachedStoreServesStoredFrames: a chunk the cache admitted from a
// DiskStore read keeps the record that read checked, and every read
// from the cache offers it as the frame, byte for byte the segment's
// record, so a bin GET hit needs no CRC pass. The record reaches the
// cache through a decorator that forwards GetCtx; a backing that holds
// no record, or hands back a copy, leaves the reader without a frame.
func TestCachedStoreServesStoredFrames(t *testing.T) {
	data := testChunk(87, 1)
	sum := SumBytes(data)
	ds, _ := newDiskStore(t, DiskStoreOptions{NoSync: true})
	mem := NewMemStore()
	for _, s := range []ChunkStore{ds, mem} {
		if err := s.Put(sum, data); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ds.readRecord(sum)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		backing ChunkStore
		framed  bool
	}{
		{"disk", ds, true},
		{"forwarding decorator", forwardOnly{ChunkStore: ds}, true},
		{"copying decorator", forwardOnly{ChunkStore: ds, copying: true}, false},
		{"memory", mem, false},
	} {
		cs := NewCachedStore(tc.backing, 1<<20)
		for _, pass := range []string{"miss", "hit"} {
			rd, err := cs.GetReaderCtx(context.Background(), sum)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, pass, err)
			}
			if b, _ := rd.Bytes(); !bytes.Equal(b, data) {
				t.Errorf("%s %s: payload differs", tc.name, pass)
			}
			fr, n, ok := rd.Frame()
			if ok != tc.framed {
				t.Fatalf("%s %s: Frame ok = %v, want %v", tc.name, pass, ok, tc.framed)
			}
			if ok {
				got := make([]byte, n)
				if _, err := io.ReadFull(fr, got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s %s: frame is not the stored record (err %v)", tc.name, pass, err)
				}
			}
			rd.Close()
		}
		if st := cs.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Used != int64(len(data)) {
			t.Errorf("%s: cache stats %+v, want 1 hit, 1 miss, %d bytes used", tc.name, st, len(data))
		}
	}

	// A bin GET hit through the front-end is the stored record.
	fe := NewFrontEnd(FrontEndConfig{Store: NewCachedStore(ds, 1<<20), Meta: NewMetadata()}).Handler()
	for _, pass := range []string{"miss", "hit"} {
		rec := serveChunkReq(fe, http.MethodPost, "/v1/bin/get", encodeBinGet([]Sum{sum}), false)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("bin GET %s: status %d, body is the stored record = %v", pass, rec.Code, bytes.Equal(rec.Body.Bytes(), want))
		}
	}
}
