package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/seglog"
	"mcloud/internal/tracing"
)

// DiskStore is a durable ChunkStore built on a segment log
// (internal/seglog), modeling the paper's back-end storage servers:
// 512 KB deduplicated chunks land behind the front-ends and must
// survive a process crash (§2.1). Each record carries a sum|len|crc32
// header so the in-memory index can be rebuilt by scanning segments on
// open; a torn final record — the only damage a crash can inflict — is
// detected by the checksum and truncated away by the log.
//
// Durability contract: when Put returns nil the record has been
// written and covered by the log's group-commit fsync, so a SIGKILL at
// any later point loses nothing acknowledged.
//
// Delete appends a tombstone record (replayed on recovery) and marks
// the dead bytes in the victim's segment; Compact rewrites sealed
// segments whose live ratio has dropped below a threshold, copying
// surviving records into the active segment and unlinking the old
// file. A crash mid-compaction is safe: copies live in a later
// segment than their originals, and the scan applies records in
// segment order, so the newest location wins and the stale segment is
// simply re-collected on the next pass.
type DiskStore struct {
	opts DiskStoreOptions
	log  *seglog.Log

	mu        sync.RWMutex
	index     map[Sum]recLoc
	segs      map[uint32]*segAcct
	dataBytes int64 // live payload bytes (headers excluded)

	puts        atomic.Int64
	dedupHits   atomic.Int64
	bytesStored atomic.Int64

	compactions atomic.Int64
	streamReads atomic.Int64 // GetReaderCtx opens (zero-copy read path)
	recovery    time.Duration
	closed      bool
}

// DiskStoreOptions tunes segment sizing and compaction.
type DiskStoreOptions struct {
	// SegmentSize is the byte size past which the active segment is
	// sealed and a new one started. Default 64 MB.
	SegmentSize int64
	// CompactBelow is the live-byte ratio under which Compact rewrites
	// a sealed segment. Default 0.5; <= 0 keeps the default, >= 1
	// compacts any segment with dead bytes.
	CompactBelow float64
	// NoSync disables fsync entirely (benchmarking only; the
	// durability contract is void).
	NoSync bool
}

func (o *DiskStoreOptions) setDefaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.CompactBelow <= 0 {
		o.CompactBelow = 0.5
	}
}

// recLoc addresses one live record.
type recLoc struct {
	seg uint32
	off int64
	n   uint32 // payload length
}

// segAcct is one segment's occupancy accounting. live and dead are
// record byte counts including headers, so live+dead is the segment's
// size.
type segAcct struct {
	live int64
	dead int64
}

const (
	recHeaderSize = 24         // sum[16] | len uint32 | crc32 uint32
	tombstoneLen  = ^uint32(0) // len sentinel for a delete record
	segPattern    = "seg-%08d.mseg"
)

func segName(id uint32) string { return fmt.Sprintf(segPattern, id) }

// recordSize is the on-disk footprint of a record with an n-byte
// payload (tombstones pass 0).
func recordSize(n uint32) int64 {
	if n == tombstoneLen {
		return recHeaderSize
	}
	return recHeaderSize + int64(n)
}

// encodeHeader fills hdr with sum|len|crc32, where the checksum covers
// the first 20 header bytes and the payload, catching torn or
// bit-flipped records in a single pass.
func encodeHeader(hdr []byte, sum Sum, length uint32, payload []byte) {
	copy(hdr[:16], sum[:])
	binary.LittleEndian.PutUint32(hdr[16:20], length)
	crc := crc32.ChecksumIEEE(hdr[:20])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[20:24], crc)
}

// recordIntact reports whether a whole record matches its stored CRC.
func recordIntact(rec []byte) bool {
	crc := crc32.ChecksumIEEE(rec[:20])
	crc = crc32.Update(crc, crc32.IEEETable, rec[recHeaderSize:])
	return binary.LittleEndian.Uint32(rec[20:24]) == crc
}

// diskFormat is the segment-file format DiskStore's log scans.
var diskFormat = seglog.Format{
	Pattern:    segPattern,
	HeaderSize: recHeaderSize,
	RecordLen: func(hdr []byte) (int64, bool) {
		n := binary.LittleEndian.Uint32(hdr[16:20])
		return recordSize(n), n == tombstoneLen || n <= ChunkSize
	},
}

// OpenDiskStore opens (creating if needed) a segment store rooted at
// dir and rebuilds the index by scanning every segment in order.
func OpenDiskStore(dir string, opts DiskStoreOptions) (*DiskStore, error) {
	opts.setDefaults()
	ds := &DiskStore{
		opts:  opts,
		index: make(map[Sum]recLoc),
		segs:  make(map[uint32]*segAcct),
	}
	start := time.Now()
	log, err := seglog.Open(dir, diskFormat, seglog.Options{SegmentSize: opts.SegmentSize, NoSync: opts.NoSync}, ds.replay)
	if err != nil {
		return nil, fmt.Errorf("storage: diskstore: %w", err)
	}
	ds.log = log
	ds.recovery = time.Since(start)
	return ds, nil
}

// replay applies one record found by the open-time scan to the index
// and the accounting, in segment order, so the newest location of a
// chunk wins (a crash between a compaction copy and the old segment's
// unlink leaves a duplicate). It reports false for a damaged record.
func (ds *DiskStore) replay(seg uint32, off int64, rec []byte) bool {
	if !recordIntact(rec) {
		return false
	}
	var sum Sum
	copy(sum[:], rec[:16])
	length := binary.LittleEndian.Uint32(rec[16:20])
	acct := ds.acct(seg)
	if length == tombstoneLen {
		acct.dead += recHeaderSize
		if loc, live := ds.index[sum]; live {
			ds.deadenLocked(loc)
			delete(ds.index, sum)
			ds.dataBytes -= int64(loc.n)
		}
		return true
	}
	if old, dup := ds.index[sum]; dup {
		ds.deadenLocked(old)
		ds.dataBytes -= int64(old.n)
	}
	ds.index[sum] = recLoc{seg: seg, off: off, n: length}
	acct.live += recordSize(length)
	ds.dataBytes += int64(length)
	return true
}

// acct returns seg's accounting, creating it on the segment's first
// record (caller holds mu, or is single-threaded open).
func (ds *DiskStore) acct(seg uint32) *segAcct {
	a, ok := ds.segs[seg]
	if !ok {
		a = &segAcct{}
		ds.segs[seg] = a
	}
	return a
}

// deadenLocked moves one record's bytes from live to dead in its
// segment accounting (caller holds mu, or is single-threaded open).
func (ds *DiskStore) deadenLocked(loc recLoc) {
	if s, ok := ds.segs[loc.seg]; ok {
		rs := recordSize(loc.n)
		s.live -= rs
		s.dead += rs
	}
}

// appendLocked appends one complete record — header and payload, as
// the caller sealed or verified it — to the log and returns the
// record's location and the LSN an fsync must cover for it to be
// durable (caller holds mu).
func (ds *DiskStore) appendLocked(rec []byte) (recLoc, int64, error) {
	seg, off, lsn, err := ds.log.Append(rec)
	if err != nil {
		return recLoc{}, 0, err
	}
	return recLoc{seg: seg, off: off, n: binary.LittleEndian.Uint32(rec[16:20])}, lsn, nil
}

// Put implements ChunkStore. It returns only after the record is
// fsync-covered, so an acknowledged chunk survives SIGKILL.
func (ds *DiskStore) Put(sum Sum, data []byte) error {
	return ds.PutCtx(context.Background(), sum, data)
}

// PutCtx implements CtxStore: the locked append and the group-commit
// fsync wait are separate spans, so a slow write shows whether the
// time went to lock contention / segment I/O or to riding someone
// else's fsync group.
//
// When ctx carries the verified record of exactly (sum, data) — the
// front-end checked the chunk at this node's boundary — that record
// is appended as it is: no second MD5, no CRC recompute, no staging
// copy. Any other call is checked here (one MD5 pass) and, unless the
// chunk is stored already, staged into a pooled record buffer for the
// append.
func (ds *DiskStore) PutCtx(ctx context.Context, sum Sum, data []byte) error {
	rec := verifiedRecord(ctx, sum, data)
	if rec == nil {
		if len(data) > ChunkSize {
			return fmt.Errorf("%w: chunk exceeds %d bytes", ErrTooLarge, ChunkSize)
		}
		if SumBytes(data) != sum {
			return errBadDigest
		}
	}
	ds.puts.Add(1)
	ds.bytesStored.Add(int64(len(data)))

	app := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskAppend)
	var stage *[]byte
	if rec == nil {
		// Repair and rebalance re-put chunks a node often holds
		// already: look before paying for the staging copy and CRC.
		ds.mu.RLock()
		_, dup := ds.index[sum]
		dup = dup && !ds.closed
		ds.mu.RUnlock()
		if dup {
			app.End()
			ds.dedupHits.Add(1)
			return nil
		}
		stage = getFrameBuf()
		rec = (*stage)[:recHeaderSize+len(data)]
		copy(rec[recHeaderSize:], data)
		encodeHeader(rec[:recHeaderSize], sum, uint32(len(data)), data)
	}
	lsn, dup, err := ds.appendNew(sum, rec)
	if stage != nil {
		putFrameBuf(stage)
	}
	if err != nil {
		app.EndErr(err)
		return err
	}
	app.End()
	if dup {
		ds.dedupHits.Add(1)
		return nil
	}

	fs := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskFsync)
	err = ds.log.SyncTo(lsn)
	fs.EndErr(err)
	return err
}

// appendNew appends rec, sum's record, unless sum is stored already
// (dup), and indexes it. It returns the LSN an fsync must cover for
// the record to be durable.
func (ds *DiskStore) appendNew(sum Sum, rec []byte) (lsn int64, dup bool, err error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return 0, false, fmt.Errorf("storage: diskstore: closed")
	}
	if _, ok := ds.index[sum]; ok {
		return 0, true, nil
	}
	loc, lsn, err := ds.appendLocked(rec)
	if err != nil {
		return 0, false, err
	}
	ds.index[sum] = loc
	ds.acct(loc.seg).live += recordSize(loc.n)
	ds.dataBytes += int64(loc.n)
	return lsn, false, nil
}

// Get implements ChunkStore, verifying the record checksum on the way
// out so on-disk corruption is surfaced rather than served.
func (ds *DiskStore) Get(sum Sum) ([]byte, error) {
	return ds.GetCtx(context.Background(), sum)
}

// GetCtx implements CtxStore, recording the read as one span. The
// payload is a slice of the CRC-checked record, which goes to the
// context's record sink when it has one.
func (ds *DiskStore) GetCtx(ctx context.Context, sum Sum) (_ []byte, err error) {
	if sp := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskRead); sp != nil {
		defer func() { sp.EndErr(err) }()
	}
	rec, err := ds.readRecord(sum)
	if err != nil {
		return nil, err
	}
	keepRecord(ctx, rec)
	return rec[recHeaderSize:], nil
}

// readRecord reads sum's whole record into a new buffer and checks its
// CRC, so on-disk corruption is surfaced rather than served.
func (ds *DiskStore) readRecord(sum Sum) ([]byte, error) {
	ds.mu.RLock()
	loc, ok := ds.index[sum]
	if !ok {
		ds.mu.RUnlock()
		return nil, ErrNotFound
	}
	seg, err := ds.log.Pin(loc.seg)
	ds.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	defer seg.Release()

	buf := make([]byte, recordSize(loc.n))
	if _, err := seg.ReadAt(buf, loc.off); err != nil {
		return nil, err
	}
	if !recordIntact(buf) {
		return nil, fmt.Errorf("storage: diskstore: on-disk corruption for %s", sum)
	}
	return buf, nil
}

// GetReaderCtx implements ReaderStore: it returns a streaming view
// over the pinned record region of the segment file instead of
// materializing the payload. The pin is held until the reader is
// Closed, so compaction keeps the file open (and its bytes valid,
// even after an unlink) for as long as the response is in flight. The
// disk span covers only the lookup and header read; the payload
// streams under the caller's span. Unlike GetCtx, the payload CRC is
// not verified up front — ChunkReader.StreamTo folds the check into
// the copy loop, and binary-dialect receivers re-verify the frame CRC
// end to end.
func (ds *DiskStore) GetReaderCtx(ctx context.Context, sum Sum) (_ *ChunkReader, err error) {
	if sp := tracing.ChildFromContext(ctx, tracing.CompDisk, tracing.SpanDiskRead); sp != nil {
		defer func() { sp.EndErr(err) }()
	}
	ds.mu.RLock()
	if ds.closed {
		ds.mu.RUnlock()
		return nil, errReaderClosed
	}
	loc, ok := ds.index[sum]
	if !ok {
		ds.mu.RUnlock()
		return nil, ErrNotFound
	}
	seg, err := ds.log.Pin(loc.seg)
	ds.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	ds.streamReads.Add(1)

	// One 24-byte pread fetches the stored CRC (so the streaming copy
	// can verify without a second pass) and sanity-checks the header
	// against the index before any payload byte is served.
	var hdr [recHeaderSize]byte
	if _, err := seg.ReadAt(hdr[:], loc.off); err != nil {
		seg.Release()
		return nil, err
	}
	var hsum Sum
	copy(hsum[:], hdr[:16])
	if hsum != sum || binary.LittleEndian.Uint32(hdr[16:20]) != loc.n {
		seg.Release()
		return nil, fmt.Errorf("storage: diskstore: on-disk corruption for %s", sum)
	}
	stored := binary.LittleEndian.Uint32(hdr[20:24])
	hdrCRC := crc32.ChecksumIEEE(hdr[:20])
	return newDiskReader(seg, loc.off, int64(loc.n), stored, hdrCRC, seg.Release), nil
}

// Has implements ChunkStore.
func (ds *DiskStore) Has(sum Sum) bool {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	_, ok := ds.index[sum]
	return ok
}

// Stats implements ChunkStore. Chunks/Bytes are rebuilt from the
// segment scan on open; the Put counters restart at zero per process.
func (ds *DiskStore) Stats() StoreStats {
	ds.mu.RLock()
	chunks := len(ds.index)
	bytes := ds.dataBytes
	ds.mu.RUnlock()
	return StoreStats{
		Chunks:      chunks,
		Bytes:       bytes,
		Puts:        ds.puts.Load(),
		DedupHits:   ds.dedupHits.Load(),
		BytesStored: ds.bytesStored.Load(),
	}
}

// Delete appends a tombstone (durable like any other record) and
// marks the victim's bytes dead for the compactor.
func (ds *DiskStore) Delete(sum Sum) error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return fmt.Errorf("storage: diskstore: closed")
	}
	loc, ok := ds.index[sum]
	if !ok {
		ds.mu.Unlock()
		return ErrNotFound
	}
	var tomb [recHeaderSize]byte
	encodeHeader(tomb[:], sum, tombstoneLen, nil)
	tloc, lsn, err := ds.appendLocked(tomb[:])
	if err != nil {
		ds.mu.Unlock()
		return err
	}
	delete(ds.index, sum)
	ds.deadenLocked(loc)
	ds.dataBytes -= int64(loc.n)
	ds.acct(tloc.seg).dead += recHeaderSize // the tombstone itself is never live
	ds.mu.Unlock()
	return ds.log.SyncTo(lsn)
}

// compactableLocked lists sealed segments whose live ratio is below
// the threshold (caller holds mu). Empty sealed segments qualify too.
func (ds *DiskStore) compactableLocked() []uint32 {
	var ids []uint32
	active := ds.log.Active()
	for id, s := range ds.segs {
		size := s.live + s.dead
		if id == active || size == 0 {
			continue
		}
		if float64(s.live)/float64(size) < ds.opts.CompactBelow {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Compact rewrites every sealed segment whose live ratio has fallen
// below CompactBelow, copying surviving records into the active
// segment and unlinking the old file. It returns the number of
// segments reclaimed. Safe to run concurrently with reads, writes,
// and even another Compact: every record move re-checks the index
// under the lock, so racing compactors skip work instead of
// duplicating it.
func (ds *DiskStore) Compact() (int, error) {
	ds.mu.RLock()
	ids := ds.compactableLocked()
	ds.mu.RUnlock()

	reclaimed := 0
	for _, id := range ids {
		if err := ds.compactSegment(id); err != nil {
			return reclaimed, err
		}
		reclaimed++
		ds.compactions.Add(1)
	}
	return reclaimed, nil
}

// compactSegment moves one sealed segment's live records into the
// active segment and removes the file.
func (ds *DiskStore) compactSegment(id uint32) error {
	// Snapshot the live records currently addressed in this segment.
	ds.mu.RLock()
	acct, ok := ds.segs[id]
	if !ok || id == ds.log.Active() {
		ds.mu.RUnlock()
		return nil
	}
	type rec struct {
		sum Sum
		loc recLoc
	}
	var live []rec
	for sum, loc := range ds.index {
		if loc.seg == id {
			live = append(live, rec{sum, loc})
		}
	}
	ds.mu.RUnlock()

	var maxLSNCopied int64
	for _, r := range live {
		rec, err := ds.readRecord(r.sum)
		if err != nil {
			if err == ErrNotFound {
				continue // deleted since the snapshot
			}
			return err
		}
		ds.mu.Lock()
		cur, ok := ds.index[r.sum]
		if !ok || cur != r.loc {
			ds.mu.Unlock() // deleted or already moved; nothing to do
			continue
		}
		loc, lsn, err := ds.appendLocked(rec)
		if err != nil {
			ds.mu.Unlock()
			return err
		}
		ds.index[r.sum] = loc
		ds.acct(loc.seg).live += recordSize(loc.n)
		ds.deadenLocked(r.loc)
		ds.mu.Unlock()
		maxLSNCopied = lsn
	}
	// The copies must be durable before the originals disappear,
	// otherwise a crash right after the unlink could lose live chunks.
	if maxLSNCopied > 0 {
		if err := ds.log.SyncTo(maxLSNCopied); err != nil {
			return err
		}
	}

	ds.mu.Lock()
	if ds.segs[id] != acct || id == ds.log.Active() {
		ds.mu.Unlock()
		return nil
	}
	delete(ds.segs, id)
	ds.mu.Unlock()
	// Readers that pinned the segment before the index swap may still
	// be reading it; Remove waits them out before closing the file.
	return ds.log.Remove(id)
}

// Close fsyncs the active segment and releases every file handle. A
// Put that appended before Close is durable and returns nil.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.closed {
		return nil
	}
	ds.closed = true
	return ds.log.Close()
}

// Range calls f for every live chunk with its payload size, stopping
// early if f returns false. Used to seed tier placement from the
// recovered index after a restart.
func (ds *DiskStore) Range(f func(sum Sum, size int64) bool) {
	ds.mu.RLock()
	type entry struct {
		sum  Sum
		size int64
	}
	entries := make([]entry, 0, len(ds.index))
	for sum, loc := range ds.index {
		entries = append(entries, entry{sum, int64(loc.n)})
	}
	ds.mu.RUnlock()
	for _, e := range entries {
		if !f(e.sum, e.size) {
			return
		}
	}
}

// DiskStats reports the segment-level state of the store.
type DiskStats struct {
	Segments    int           // segment files on disk
	LiveBytes   int64         // record bytes still addressed by the index
	DeadBytes   int64         // record bytes awaiting compaction
	Fsyncs      int64         // fsync syscalls issued (group-committed)
	Compactions int64         // segments rewritten and reclaimed
	StreamReads int64         // zero-copy streaming reads served
	Recovery    time.Duration // index rebuild time at open
	Truncated   int64         // torn-tail bytes discarded at open
}

// DiskStats returns a snapshot of the on-disk accounting.
func (ds *DiskStore) DiskStats() DiskStats {
	ls := ds.log.Stats()
	ds.mu.RLock()
	st := DiskStats{
		Segments:    ls.Segments,
		Fsyncs:      ls.Fsyncs,
		Compactions: ds.compactions.Load(),
		StreamReads: ds.streamReads.Load(),
		Recovery:    ds.recovery,
		Truncated:   ls.Truncated,
	}
	for _, s := range ds.segs {
		st.LiveBytes += s.live
		st.DeadBytes += s.dead
	}
	ds.mu.RUnlock()
	return st
}
