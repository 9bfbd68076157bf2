// Package seglog is an append-only log of caller-framed records split
// across numbered segment files. It owns the files: naming and listing
// them, appending, the group-commit fsync, sealing and rotation,
// torn-tail recovery at open, and removal behind pinned readers. It
// does not own the record format: the caller frames and checksums each
// record, and tells the log how long a record is from its header and
// whether a record found at open is intact.
//
// Durability contract: a record is durable once SyncTo has returned
// nil for its LSN. Every segment is fsynced before it is sealed and
// the directory is fsynced whenever a segment is created, so a crash
// can tear only the final segment's tail; Open truncates that tail and
// refuses a damaged record anywhere else. Close covers every LSN that
// Append returned.
package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("seglog: closed")

// Format describes the caller's segment files and record framing.
type Format struct {
	// Pattern names a segment file from its id: a fmt pattern with one
	// integer verb, e.g. "seg-%08d.mseg".
	Pattern string
	// FirstID is the id of the segment created in an empty directory.
	FirstID uint32
	// HeaderSize is the fixed length of a record header.
	HeaderSize int
	// RecordLen returns the full length (header included) of the record
	// that hdr begins, and false when hdr cannot begin a record.
	RecordLen func(hdr []byte) (int64, bool)
}

func (f Format) name(id uint32) string { return fmt.Sprintf(f.Pattern, id) }

// Options tunes sealing and syncing.
type Options struct {
	// SegmentSize seals the active segment at the first Append that
	// finds it at or past this many bytes; 0 seals only on Rotate.
	SegmentSize int64
	// NoSync disables every fsync (benchmarking only; the durability
	// contract is void).
	NoSync bool
}

// Stats is a snapshot of the log's accounting.
type Stats struct {
	Segments  int   // segment files on disk
	Fsyncs    int64 // segment fsyncs issued (group commit, seals and Close)
	Truncated int64 // torn-tail bytes discarded at Open
}

// Log is an open segment log. Append, SyncTo, Pin and Remove are safe
// for concurrent use.
type Log struct {
	dir    string
	format Format
	opts   Options

	mu     sync.RWMutex
	segs   map[uint32]*segment
	active *segment
	closed bool

	// appendLSN counts bytes ever appended (across segments, starting
	// from the bytes found at Open); syncedLSN is how far fsyncs cover.
	appendLSN atomic.Int64
	syncedLSN atomic.Int64
	syncMu    sync.Mutex

	fsyncs    atomic.Int64
	truncated int64
}

type segment struct {
	id   uint32
	f    *os.File
	size int64
	pins atomic.Int64 // readers and fsyncs in flight; Remove waits them out
}

// Open opens (creating if needed) the log in dir and scans every
// segment in id order. For each record it calls visit with the
// record's segment, offset and bytes (valid only during the call);
// visit applies the record and returns false if the record is damaged.
// A damaged or incomplete record ends the final segment, which is
// truncated there; anywhere else it fails Open. Appends resume in the
// final segment unless it is full.
func Open(dir string, format Format, opts Options, visit func(seg uint32, off int64, rec []byte) bool) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var ids []uint32
	for _, e := range entries {
		var id uint32
		if _, err := fmt.Sscanf(e.Name(), format.Pattern, &id); err == nil && e.Name() == format.name(id) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	l := &Log{dir: dir, format: format, opts: opts, segs: make(map[uint32]*segment)}
	var total int64
	for i, id := range ids {
		s, err := l.scan(id, i == len(ids)-1, visit)
		if err != nil {
			l.closeFiles()
			return nil, err
		}
		l.segs[id] = s
		l.active = s
		total += s.size
	}
	l.appendLSN.Store(total)
	l.syncedLSN.Store(total)

	switch {
	case l.active == nil:
		err = l.createLocked(format.FirstID)
	case opts.SegmentSize > 0 && l.active.size >= opts.SegmentSize:
		err = l.rotateLocked()
	}
	if err != nil {
		l.closeFiles()
		return nil, err
	}
	return l, nil
}

// scan replays one segment file through visit. Only the final segment
// is opened for writing, and only its tail may be truncated.
func (l *Log) scan(id uint32, final bool, visit func(uint32, int64, []byte) bool) (*segment, error) {
	name := l.format.name(id)
	flag := os.O_RDONLY
	if final {
		flag = os.O_RDWR
	}
	f, err := os.OpenFile(filepath.Join(l.dir, name), flag, 0)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := info.Size()
	hn := int64(l.format.HeaderSize)
	buf := make([]byte, hn)
	var off int64
	for off < size {
		ok := false
		var n int64
		if size-off >= hn {
			if _, err := f.ReadAt(buf[:hn], off); err != nil {
				f.Close()
				return nil, err
			}
			n, ok = l.format.RecordLen(buf[:hn])
			ok = ok && n >= hn && off+n <= size
			if ok {
				if int64(cap(buf)) < n {
					buf = append(buf[:hn], make([]byte, n-hn)...)
				}
				if _, err := f.ReadAt(buf[hn:n], off+hn); err != nil {
					f.Close()
					return nil, err
				}
				ok = visit(id, off, buf[:n])
			}
		}
		if !ok {
			if !final {
				f.Close()
				return nil, fmt.Errorf("seglog: corrupt record in sealed segment %s at offset %d", name, off)
			}
			// Torn tail from the crash this open is healing: drop it so
			// the next append starts on a record boundary.
			if err := f.Truncate(off); err != nil {
				f.Close()
				return nil, err
			}
			l.truncated += size - off
			size = off
			break
		}
		off += n
	}
	return &segment{id: id, f: f, size: size}, nil
}

// createLocked creates segment id as the active segment and fsyncs the
// directory so the new entry survives a crash (caller holds mu, or is
// single-threaded Open).
func (l *Log) createLocked(id uint32) error {
	path := filepath.Join(l.dir, l.format.name(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := SyncDir(l.dir); err != nil {
			f.Close()
			os.Remove(path)
			return err
		}
	}
	s := &segment{id: id, f: f}
	l.segs[id] = s
	l.active = s
	return nil
}

// rotateLocked fsyncs the active segment, which is never written
// again, and starts the next one (caller holds mu). Sealing is what
// confines torn records to the final segment.
func (l *Log) rotateLocked() error {
	if !l.opts.NoSync {
		if err := l.active.f.Sync(); err != nil {
			return err
		}
		l.fsyncs.Add(1)
	}
	// Everything appended so far lives in sealed, synced files.
	raise(&l.syncedLSN, l.appendLSN.Load())
	return l.createLocked(l.active.id + 1)
}

// raise lifts v to at least lsn.
func raise(v *atomic.Int64, lsn int64) {
	for {
		cur := v.Load()
		if cur >= lsn || v.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Append writes rec, one complete record, to the active segment with a
// single write, sealing the segment first when it is full. It returns
// where the record landed and the LSN that SyncTo must cover for the
// record to be durable.
func (l *Log) Append(rec []byte) (seg uint32, off, lsn int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, 0, ErrClosed
	}
	if l.opts.SegmentSize > 0 && l.active.size >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			return 0, 0, 0, err
		}
	}
	s := l.active
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return 0, 0, 0, err
	}
	off = s.size
	s.size += int64(len(rec))
	return s.id, off, l.appendLSN.Add(int64(len(rec))), nil
}

// SyncTo blocks until an fsync has covered lsn. Writers arriving while
// another writer's fsync is in flight queue on syncMu and usually find
// their record already covered when they get the lock: the group
// commit that keeps the fsync count sublinear in writer count.
func (l *Log) SyncTo(lsn int64) error {
	if l.opts.NoSync || l.syncedLSN.Load() >= lsn {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncedLSN.Load() >= lsn {
		return nil
	}
	l.mu.RLock()
	s, cover, closed := l.active, l.appendLSN.Load(), l.closed
	if !closed {
		s.pins.Add(1)
	}
	l.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	defer s.pins.Add(-1)
	if err := s.f.Sync(); err != nil {
		return err
	}
	l.fsyncs.Add(1)
	// Records at or below cover sit either in the file just synced or
	// in a segment that was fsynced when it was sealed.
	raise(&l.syncedLSN, cover)
	return nil
}

// Rotate seals the active segment and starts a new one, returning the
// sealed segment's id.
func (l *Log) Rotate() (uint32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	id := l.active.id
	return id, l.rotateLocked()
}

// Pinned is a read view of one segment. The segment's file stays open
// until Release, even if the segment is removed meanwhile.
type Pinned struct{ s *segment }

// ReadAt reads from the pinned segment file.
func (p Pinned) ReadAt(b []byte, off int64) (int, error) { return p.s.f.ReadAt(b, off) }

// Release drops the pin; call it exactly once.
func (p Pinned) Release() { p.s.pins.Add(-1) }

// Pin holds segment seg open for reading until the returned view is
// released.
func (l *Log) Pin(seg uint32) (Pinned, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return Pinned{}, ErrClosed
	}
	s, ok := l.segs[seg]
	if !ok {
		return Pinned{}, fmt.Errorf("seglog: no segment %s", l.format.name(seg))
	}
	s.pins.Add(1)
	return Pinned{s}, nil
}

// Remove unlinks sealed segment seg, then waits for its pins to be
// released and closes it. If the unlink fails the segment stays in the
// log, counted and removable by a later call.
func (l *Log) Remove(seg uint32) error {
	l.mu.RLock()
	s, ok := l.segs[seg]
	active, closed := s == l.active, l.closed
	l.mu.RUnlock()
	switch {
	case closed:
		return ErrClosed
	case !ok:
		return nil
	case active:
		return fmt.Errorf("seglog: cannot remove the active segment %s", l.format.name(seg))
	}
	if err := os.Remove(filepath.Join(l.dir, l.format.name(seg))); err != nil && !os.IsNotExist(err) {
		return err
	}
	l.mu.Lock()
	if l.segs[seg] != s {
		l.mu.Unlock()
		return nil // a concurrent Remove got here first
	}
	delete(l.segs, seg)
	l.mu.Unlock()
	for s.pins.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	return s.f.Close()
}

// Active returns the id of the segment appends go to.
func (l *Log) Active() uint32 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.active.id
}

// Segments returns the ids of the segment files, oldest first.
func (l *Log) Segments() []uint32 {
	l.mu.RLock()
	ids := make([]uint32, 0, len(l.segs))
	for id := range l.segs {
		ids = append(ids, id)
	}
	l.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Close fsyncs the active segment, covering every appended LSN, and
// closes every segment file.
func (l *Log) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var first error
	if !l.opts.NoSync {
		first = l.active.f.Sync()
		if first == nil {
			l.fsyncs.Add(1)
		}
	}
	if first == nil {
		raise(&l.syncedLSN, l.appendLSN.Load())
	}
	if err := l.closeFiles(); first == nil {
		first = err
	}
	return first
}

func (l *Log) closeFiles() error {
	var first error
	for _, s := range l.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns the current accounting.
func (l *Log) Stats() Stats {
	l.mu.RLock()
	n := len(l.segs)
	l.mu.RUnlock()
	return Stats{Segments: n, Fsyncs: l.fsyncs.Load(), Truncated: l.truncated}
}

// SyncDir fsyncs a directory, making entries created or renamed in it
// durable. Filesystems that reject directory fsync (some network or
// FUSE mounts) are tolerated: the rename is still atomic, only its
// durability timing is weaker there.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (os.IsPermission(err) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP)) {
		return nil
	}
	return err
}
