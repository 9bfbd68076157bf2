//go:build !race

package storage

import (
	"encoding/binary"
	"math/rand"
	"net/http"
	"runtime"
	"testing"
)

// The allocation pin runs only without the race detector: under -race
// sync.Pool drops a share of what is put back, so pooled frame buffers
// are reallocated at random and the count measures the detector, not
// the put path.

// TestBinPutAllocsUnderChunk pins the allocation win of the verbatim
// append: storing a full chunk through a bin PUT into a DiskStore
// allocates a small fraction of a chunk (the pooled frame buffer is
// reused), where staging a record copy cost at least ChunkSize.
func TestBinPutAllocsUnderChunk(t *testing.T) {
	ds, _ := newDiskStore(t, DiskStoreOptions{NoSync: true})
	h := NewFrontEnd(FrontEndConfig{Store: ds, Meta: NewMetadata()}).Handler()
	data := make([]byte, ChunkSize)
	rand.New(rand.NewSource(84)).Read(data)
	body := appendBinCount(nil, 1)
	body = append(body, make([]byte, recHeaderSize+ChunkSize)...)
	put := func(i int) {
		binary.LittleEndian.PutUint64(data, uint64(i)) // a fresh digest each time
		sum := SumBytes(data)
		encodeHeader(body[4:4+recHeaderSize], sum, ChunkSize, data)
		copy(body[4+recHeaderSize:], data)
		if rec := serveChunkReq(h, http.MethodPost, "/v1/bin/put", body, false); rec.Code != http.StatusOK {
			t.Fatalf("put %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	put(0) // warm the pools
	const n = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= n; i++ {
		put(i)
	}
	runtime.ReadMemStats(&after)
	perChunk := (after.TotalAlloc - before.TotalAlloc) / n
	if perChunk > ChunkSize/4 {
		t.Fatalf("bin PUT allocates %d bytes per %d-byte chunk, want under %d", perChunk, ChunkSize, ChunkSize/4)
	}
	t.Logf("bin PUT into DiskStore: %d bytes allocated per chunk", perChunk)
}
