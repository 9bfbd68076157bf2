package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// testFormat frames a record as len uint32 | crc32 uint32 | payload.
var testFormat = Format{
	Pattern:    "t-%04d.log",
	FirstID:    1,
	HeaderSize: 8,
	RecordLen: func(hdr []byte) (int64, bool) {
		n := binary.LittleEndian.Uint32(hdr[0:4])
		return 8 + int64(n), n <= 1<<20
	},
}

func record(payload string) []byte {
	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE([]byte(payload)))
	copy(rec[8:], payload)
	return rec
}

// collect opens dir and returns the payloads found, in scan order.
func collect(t *testing.T, dir string, opts Options) (*Log, []string) {
	t.Helper()
	var got []string
	l, err := Open(dir, testFormat, opts, func(_ uint32, _ int64, rec []byte) bool {
		if binary.LittleEndian.Uint32(rec[4:8]) != crc32.ChecksumIEEE(rec[8:]) {
			return false
		}
		got = append(got, string(rec[8:]))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, got
}

func appendAll(t *testing.T, l *Log, payloads ...string) (lsn int64) {
	t.Helper()
	for _, p := range payloads {
		var err error
		if _, _, lsn, err = l.Append(record(p)); err != nil {
			t.Fatal(err)
		}
	}
	return lsn
}

func TestAppendReopen(t *testing.T) {
	dir := t.TempDir()
	l, got := collect(t, dir, Options{SegmentSize: 40})
	if len(got) != 0 || l.Active() != testFormat.FirstID {
		t.Fatalf("fresh log: records %v, active %d", got, l.Active())
	}
	var want []string
	// 16-byte records, three to a segment: the last one ends full.
	for i := 0; i < 9; i++ {
		want = append(want, fmt.Sprintf("record-%d", i))
	}
	if err := l.SyncTo(appendAll(t, l, want...)); err != nil {
		t.Fatal(err)
	}
	if n := l.Stats().Segments; n < 3 {
		t.Fatalf("%d segments with a 40-byte segment size, want several", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got := collect(t, dir, Options{SegmentSize: 40})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reopen read %v, want %v", got, want)
	}
	// The final segment was full: appends go to a new one.
	ids := l2.Segments()
	if l2.Active() != ids[len(ids)-1] || l2.Active() != l.Active()+1 {
		t.Fatalf("active %d of %v, want a new segment after %d", l2.Active(), ids, l.Active())
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, Options{})
	appendAll(t, l, "alpha", "beta", "gamma")
	l.Close()

	path := filepath.Join(dir, testFormat.name(1))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	l2, got := collect(t, dir, Options{})
	if fmt.Sprint(got) != "[alpha beta]" {
		t.Fatalf("after a torn tail read %v", got)
	}
	if st := l2.Stats(); st.Truncated != int64(len(record("gamma")))-2 {
		t.Fatalf("truncated %d bytes", st.Truncated)
	}
	// Appends resume on the record boundary.
	appendAll(t, l2, "delta")
	l2.Close()
	if _, got := collect(t, dir, Options{}); fmt.Sprint(got) != "[alpha beta delta]" {
		t.Fatalf("after resume read %v", got)
	}
}

func TestCorruptSealedSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, Options{})
	appendAll(t, l, "sealed-1", "sealed-2")
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "active")
	l.Close()

	f, err := os.OpenFile(filepath.Join(dir, testFormat.name(1)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{'X'}, 9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = Open(dir, testFormat, Options{}, func(_ uint32, _ int64, rec []byte) bool {
		return binary.LittleEndian.Uint32(rec[4:8]) == crc32.ChecksumIEEE(rec[8:])
	})
	if err == nil {
		t.Fatal("open succeeded over a corrupt sealed segment")
	}
}

// TestFsyncBatching verifies group commit deterministically: the test
// holds the sync lock while a batch of writers append, so when the
// lock is released the first writer's fsync must cover the whole batch
// and the rest return without syncing.
func TestFsyncBatching(t *testing.T) {
	l, _ := collect(t, t.TempDir(), Options{})
	const workers = 16

	// Warm up so the baseline fsync count is stable.
	if err := l.SyncTo(appendAll(t, l, "warm")); err != nil {
		t.Fatal(err)
	}
	base := l.Stats().Fsyncs
	wantLSN := l.appendLSN.Load()
	for i := 0; i < workers; i++ {
		wantLSN += int64(len(record(fmt.Sprint("w", i))))
	}

	l.syncMu.Lock() // stall every writer's fsync behind the test
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, _, lsn, err := l.Append(record(fmt.Sprint("w", w)))
			if err == nil {
				err = l.SyncTo(lsn)
			}
			if err != nil {
				t.Error(err)
			}
		}(w)
	}
	// Wait until every writer has appended (they block only in SyncTo).
	for l.appendLSN.Load() < wantLSN {
		time.Sleep(time.Millisecond)
	}
	l.syncMu.Unlock()
	wg.Wait()

	got := l.Stats().Fsyncs - base
	if got >= workers {
		t.Fatalf("%d fsyncs for %d batched appends; group commit not batching", got, workers)
	}
	if got == 0 {
		t.Fatal("no fsync issued for the batch")
	}
	t.Logf("group commit: %d appends covered by %d fsyncs", workers, got)
}

// TestSyncToAfterClose: Close makes every appended record durable, so
// a writer that appended before Close and waits after it succeeds.
func TestSyncToAfterClose(t *testing.T) {
	l, _ := collect(t, t.TempDir(), Options{})
	lsn := appendAll(t, l, "last-before-close")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncTo(lsn); err != nil {
		t.Fatalf("SyncTo after Close for an appended record: %v", err)
	}
	if _, _, _, err := l.Append(record("late")); err != ErrClosed {
		t.Fatalf("append after Close: err = %v, want ErrClosed", err)
	}
}

// TestRemoveWaitsForPins: a removed segment's file stays readable for
// a reader that pinned it first, and Remove returns only after the pin
// is released.
func TestRemoveWaitsForPins(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, Options{})
	appendAll(t, l, "old")
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(l.Active()); err == nil {
		t.Fatal("removed the active segment")
	}
	p, err := l.Pin(sealed)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Remove(sealed) }()
	path := filepath.Join(dir, testFormat.name(sealed))
	for {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Remove returned (%v) while a pin was held", err)
	default:
	}
	buf := make([]byte, 3)
	if _, err := p.ReadAt(buf, 8); err != nil || string(buf) != "old" {
		t.Fatalf("pinned read after unlink: %q, %v", buf, err)
	}
	p.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := l.Pin(sealed); err == nil {
		t.Fatal("pinned a removed segment")
	}
	if n := l.Stats().Segments; n != 1 {
		t.Fatalf("%d segments after removal, want 1", n)
	}
}

// TestRemoveFailureKeepsSegment: a segment whose unlink fails stays
// counted, and a later Remove collects it.
func TestRemoveFailureKeepsSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := collect(t, dir, Options{})
	appendAll(t, l, "old")
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, testFormat.name(sealed))
	blockUnlink(t, path)
	if err := l.Remove(sealed); err == nil {
		t.Fatal("Remove succeeded over a non-empty directory")
	}
	if n := l.Stats().Segments; n != 2 {
		t.Fatalf("%d segments after a failed unlink, want 2", n)
	}
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := l.Remove(sealed); err != nil {
		t.Fatal(err)
	}
	if n := l.Stats().Segments; n != 1 {
		t.Fatalf("%d segments after the retry, want 1", n)
	}
}

// blockUnlink swaps the file at path for a non-empty directory, which
// os.Remove cannot delete, even for root.
func blockUnlink(t *testing.T, path string) {
	t.Helper()
	if err := os.Rename(path, path+".moved"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
}
