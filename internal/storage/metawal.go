package storage

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mcloud/internal/metrics"
	"mcloud/internal/seglog"
)

// MetaWAL is the metadata server's write-ahead log: the durability
// layer that makes every acknowledged metadata mutation — URL
// reservations, dedup links, commits, unlinks — survive SIGKILL, the
// way DiskStore already protects chunk payloads, and on the same
// segment log (internal/seglog), which owns the files, the
// group-commit fsync and torn-tail recovery:
//
//   - Every mutation appends one framed record (seq | len | crc32 |
//     JSON payload) to the log and then waits for an fsync to cover
//     its LSN.
//   - A checkpoint serializes the full catalog with the snapshot
//     codec (persist.go), seals the active segment, writes the
//     snapshot atomically (temp + fsync + rename + directory fsync),
//     and removes the sealed segments the checkpoint now covers.
//     Rotation happens only at checkpoints.
//   - Open-time recovery loads the checkpoint and replays every WAL
//     record with a later sequence number.
//
// The log is also the replication stream: committed records feed the
// in-memory tail buffer that standby nodes pull over /v1/meta/wal/pull
// (see metareplicate.go).
type MetaWAL struct {
	dir string
	log *seglog.Log

	mu     sync.Mutex
	sealed []sealedSeg
	cpSeq  uint64 // sequence number covered by checkpoint.json

	appends     atomic.Int64
	bytesLogged atomic.Int64
	checkpoints atomic.Int64
	recovery    time.Duration

	fsyncHist *metrics.Histogram // nil until Instrument
}

// sealedSeg is one sealed segment awaiting checkpoint pruning.
type sealedSeg struct {
	id      uint32
	lastSeq uint64 // highest record sequence the segment holds
}

// Metadata WAL record operations. Each record is one logical mutation;
// replaying them in sequence order reproduces the in-memory state
// exactly (applyRecordLocked is the single mutation path shared by
// live operations, recovery replay, and standby apply).
const (
	walOpReserve = "reserve" // StoreCheck miss: reserve URL + link user
	walOpLink    = "link"    // StoreCheck dedup hit: link existing file
	walOpCommit  = "commit"  // finalize an upload (chunk digests land)
	walOpUnlink  = "unlink"  // remove a file from one user's namespace
	walOpEpoch   = "epoch"   // leadership fence: a promotion bumped the epoch
)

// MetaWALRecord is one logged metadata mutation; it doubles as the
// wire form streamed to standby nodes.
type MetaWALRecord struct {
	Seq uint64 `json:"seq"`
	// Epoch is the leadership term the record was written under. It
	// rides inside the JSON payload (covered by the frame CRC) so the
	// 16-byte header layout is unchanged and old segments decode with
	// epoch 0. A walOpEpoch record is how the epoch rises; every later
	// record carries the new value, so replaying a WAL reproduces the
	// epoch along with the catalog.
	Epoch     uint64   `json:"epoch,omitempty"`
	Op        string   `json:"op"`
	User      uint64   `json:"user,omitempty"`
	URL       string   `json:"url,omitempty"`
	Name      string   `json:"name,omitempty"`
	Size      int64    `json:"size,omitempty"`
	FileMD5   string   `json:"file_md5,omitempty"`
	ChunkMD5s []string `json:"chunk_md5s,omitempty"`
	URLSeq    int64    `json:"url_seq,omitempty"`
}

const (
	walHeaderSize = 16 // seq uint64 | len uint32 | crc32 uint32
	walSegPattern = "wal-%08d.mwal"
	// maxWALRecord bounds one record's payload; anything larger in a
	// header is framing damage, not a real record.
	maxWALRecord = 8 << 20
	// checkpointName is the atomic snapshot file beside the segments.
	checkpointName = "checkpoint.json"
)

func walSegName(id uint32) string { return fmt.Sprintf(walSegPattern, id) }

// walFormat is the segment-file format MetaWAL's log scans.
var walFormat = seglog.Format{
	Pattern:    walSegPattern,
	FirstID:    1,
	HeaderSize: walHeaderSize,
	RecordLen: func(hdr []byte) (int64, bool) {
		n := binary.LittleEndian.Uint32(hdr[8:12])
		return walHeaderSize + int64(n), n <= maxWALRecord
	},
}

// encodeWALHeader frames one record; the CRC covers the first 12
// header bytes and the payload, catching torn and bit-flipped records
// in one check.
func encodeWALHeader(hdr []byte, seq uint64, payload []byte) {
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
}

// decodeWALRecord checks one framed record's CRC and sequence number
// and decodes its payload.
func decodeWALRecord(rec []byte) (MetaWALRecord, bool) {
	var r MetaWALRecord
	crc := crc32.ChecksumIEEE(rec[:12])
	if crc32.Update(crc, crc32.IEEETable, rec[walHeaderSize:]) != binary.LittleEndian.Uint32(rec[12:16]) {
		return r, false
	}
	err := json.Unmarshal(rec[walHeaderSize:], &r)
	return r, err == nil && r.Seq == binary.LittleEndian.Uint64(rec[0:8])
}

// checkpointFile is the on-disk form of a metadata checkpoint: the
// snapshot codec plus the WAL sequence number it covers.
type checkpointFile struct {
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	// Epoch is the leadership term at checkpoint time; absent (0) in
	// checkpoints written before fencing existed.
	Epoch uint64       `json:"epoch,omitempty"`
	Meta  metaSnapshot `json:"meta"`
}

// OpenDurableMetadata opens (creating if needed) a WAL-backed metadata
// server rooted at dir: state is the latest checkpoint plus a replay
// of every WAL record past it, with a torn final record truncated
// away. Every subsequent mutation is disk-covered before it is
// acknowledged.
func OpenDurableMetadata(dir string) (*Metadata, error) {
	start := time.Now()
	m := NewMetadata()

	cp, err := loadCheckpoint(filepath.Join(dir, checkpointName))
	if err != nil {
		return nil, err
	}
	if cp != nil {
		if err := m.restoreLocked(cp.Meta); err != nil {
			return nil, fmt.Errorf("storage: metawal: checkpoint: %w", err)
		}
		m.lastSeq = cp.Seq
		m.epoch = cp.Epoch
	}

	w := &MetaWAL{dir: dir}
	if cp != nil {
		w.cpSeq = cp.Seq
	}
	var replay []MetaWALRecord
	lastSeq := make(map[uint32]uint64) // per segment
	w.log, err = seglog.Open(dir, walFormat, seglog.Options{}, func(seg uint32, _ int64, rec []byte) bool {
		r, ok := decodeWALRecord(rec)
		if ok {
			replay = append(replay, r)
			lastSeq[seg] = r.Seq
		}
		return ok
	})
	if err != nil {
		return nil, fmt.Errorf("storage: metawal: %w", err)
	}
	active := w.log.Active()
	for _, id := range w.log.Segments() {
		if id == active {
			continue
		}
		last, ok := lastSeq[id]
		if !ok {
			last = w.cpSeq
		}
		w.sealed = append(w.sealed, sealedSeg{id: id, lastSeq: last})
	}
	for i := range replay {
		rec := replay[i]
		if rec.Seq <= m.lastSeq {
			continue // covered by the checkpoint (prune raced a crash)
		}
		if err := m.applyRecordLocked(&rec); err != nil {
			w.log.Close()
			return nil, fmt.Errorf("storage: metawal: replay seq %d: %w", rec.Seq, err)
		}
		m.lastSeq = rec.Seq
		m.tailAppendLocked(rec)
	}
	w.recovery = time.Since(start)
	m.wal = w
	return m, nil
}

// loadCheckpoint reads a checkpoint file; a missing file is a fresh
// start, not an error.
func loadCheckpoint(path string) (*checkpointFile, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cp checkpointFile
	if err := json.NewDecoder(f).Decode(&cp); err != nil {
		return nil, fmt.Errorf("storage: metawal: corrupt checkpoint: %w", err)
	}
	if cp.Version != snapshotVersion {
		return nil, fmt.Errorf("storage: metawal: unsupported checkpoint version %d", cp.Version)
	}
	return &cp, nil
}

// Append writes one framed record to the active segment and returns
// the LSN an fsync must cover for it to be durable. The caller holds
// the Metadata lock, which is what serializes record order with apply
// order; WaitDurable is called after the lock is released.
func (w *MetaWAL) Append(rec *MetaWALRecord) (int64, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, walHeaderSize+len(payload))
	encodeWALHeader(buf[:walHeaderSize], rec.Seq, payload)
	copy(buf[walHeaderSize:], payload)
	_, _, lsn, err := w.log.Append(buf)
	if err != nil {
		return 0, fmt.Errorf("storage: metawal: %w", err)
	}
	w.appends.Add(1)
	w.bytesLogged.Add(int64(len(buf)))
	return lsn, nil
}

// WaitDurable blocks until the log's group-commit fsync has covered
// lsn, and records the wait.
func (w *MetaWAL) WaitDurable(lsn int64) error {
	start := time.Now()
	if d := metaFsyncDelay; d != nil {
		d()
	}
	if err := w.log.SyncTo(lsn); err != nil {
		return err
	}
	if h := w.fsyncHist; h != nil {
		h.ObserveSince(start)
	}
	return nil
}

// metaFsyncDelay, when set, runs in WaitDurable before the fsync wait.
// Test hook: lets the fencing tests stall the disk under an in-flight
// commit the way a sick device would.
var metaFsyncDelay func()

// renameCheckpoint is swapped out by crash-safety tests to fail the
// checkpoint between the temp-file write and the atomic rename.
var renameCheckpoint = os.Rename

// writeCheckpoint persists the snapshot atomically beside the
// segments: temp file + fsync + rename + directory fsync.
func (w *MetaWAL) writeCheckpoint(snap metaSnapshot, seq, epoch uint64) error {
	tmp, err := os.CreateTemp(w.dir, ".checkpoint-*")
	if err != nil {
		return err
	}
	cp := checkpointFile{Version: snapshotVersion, Seq: seq, Epoch: epoch, Meta: snap}
	err = json.NewEncoder(tmp).Encode(cp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := renameCheckpoint(tmp.Name(), filepath.Join(w.dir, checkpointName)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return seglog.SyncDir(w.dir)
}

// prune removes sealed segments fully covered by the checkpoint at
// seq. A segment whose removal fails stays listed, so the next
// checkpoint retries it. A crash before (or during) pruning is safe:
// replay skips records at or below the checkpoint sequence.
func (w *MetaWAL) prune(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cpSeq = seq
	w.checkpoints.Add(1)
	kept := w.sealed[:0]
	var first error
	for _, s := range w.sealed {
		if s.lastSeq <= seq {
			err := w.log.Remove(s.id)
			if err == nil {
				continue
			}
			if first == nil {
				first = err
			}
		}
		kept = append(kept, s)
	}
	w.sealed = kept
	return first
}

// Close fsyncs and releases the segments. Call Checkpoint first for a
// clean shutdown; Close alone is still crash-equivalent (the WAL
// replays).
func (w *MetaWAL) Close() error { return w.log.Close() }

// MetaWALStats is a snapshot of the log's accounting.
type MetaWALStats struct {
	CheckpointSeq uint64        // sequence covered by the checkpoint file
	Segments      int           // segment files on disk (sealed + active)
	Appends       int64         // records appended this process
	BytesLogged   int64         // framed bytes appended this process
	Fsyncs        int64         // fsync syscalls issued (group-committed)
	Checkpoints   int64         // checkpoints taken this process
	Recovery      time.Duration // checkpoint load + replay time at open
	Truncated     int64         // torn-tail bytes discarded at open
}

// Stats returns the current accounting.
func (w *MetaWAL) Stats() MetaWALStats {
	ls := w.log.Stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	return MetaWALStats{
		CheckpointSeq: w.cpSeq,
		Segments:      ls.Segments,
		Appends:       w.appends.Load(),
		BytesLogged:   w.bytesLogged.Load(),
		Fsyncs:        ls.Fsyncs,
		Checkpoints:   w.checkpoints.Load(),
		Recovery:      w.recovery,
		Truncated:     ls.Truncated,
	}
}

// Instrument registers the WAL series. Called from
// Metadata.Instrument when a WAL is attached.
func (w *MetaWAL) Instrument(reg *metrics.Registry) {
	reg.CounterFunc("mcs_meta_wal_appends_total", "Metadata WAL records appended.",
		func() float64 { return float64(w.appends.Load()) })
	reg.CounterFunc("mcs_meta_wal_bytes_total", "Metadata WAL bytes appended (headers included).",
		func() float64 { return float64(w.bytesLogged.Load()) })
	reg.CounterFunc("mcs_meta_wal_fsyncs_total", "Metadata WAL fsync syscalls (group-committed).",
		func() float64 { return float64(w.log.Stats().Fsyncs) })
	reg.CounterFunc("mcs_meta_wal_checkpoints_total", "Metadata checkpoints taken.",
		func() float64 { return float64(w.checkpoints.Load()) })
	reg.GaugeFunc("mcs_meta_wal_segments", "Metadata WAL segment files on disk.",
		func() float64 { return float64(w.Stats().Segments) })
	reg.GaugeFunc("mcs_meta_wal_recovery_seconds", "Metadata recovery time at open (checkpoint load + WAL replay).",
		func() float64 { return w.recovery.Seconds() })
	reg.GaugeFunc("mcs_meta_wal_truncated_bytes", "Torn-tail bytes discarded at the last open.",
		func() float64 { return float64(w.log.Stats().Truncated) })
	w.fsyncHist = reg.Histogram("mcs_meta_wal_fsync_seconds",
		"Group-commit fsync wait behind one metadata mutation.")
}

// Checkpoint serializes the current catalog, seals the active WAL
// segment, writes the snapshot atomically, and prunes the segments it
// covers. Mutations are paused only for the in-memory serialization
// and rotation; the disk writes happen after the lock drops. A no-op
// when nothing was logged since the last checkpoint.
func (m *Metadata) Checkpoint() error {
	w := m.wal
	if w == nil {
		return nil
	}
	m.mu.Lock()
	seq := m.lastSeq
	epoch := m.epoch
	w.mu.Lock()
	if seq == w.cpSeq {
		w.mu.Unlock()
		m.mu.Unlock()
		return nil
	}
	snap := m.snapshotLocked()
	sealed, err := w.log.Rotate()
	if err == nil {
		w.sealed = append(w.sealed, sealedSeg{id: sealed, lastSeq: seq})
	}
	w.mu.Unlock()
	m.mu.Unlock()
	if err != nil {
		return err
	}
	if err := w.writeCheckpoint(snap, seq, epoch); err != nil {
		return err
	}
	return w.prune(seq)
}

// CloseWAL checkpoints and closes the log; the metadata server keeps
// serving from memory but no longer persists (used at shutdown).
func (m *Metadata) CloseWAL() error {
	if m.wal == nil {
		return nil
	}
	if err := m.Checkpoint(); err != nil {
		return err
	}
	return m.wal.Close()
}

// WAL exposes the attached log, nil for a RAM-only metadata server.
func (m *Metadata) WAL() *MetaWAL { return m.wal }

// LastSeq returns the sequence number of the newest applied mutation.
func (m *Metadata) LastSeq() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.lastSeq
}
