package storage

import (
	"context"
	"unsafe"
)

// A verified record is one chunk that has passed this node's boundary
// check: its 24-byte sum|len|crc32 header followed by its payload, in
// one contiguous slice. That layout is byte for byte both an mcsbin/1
// frame and a DiskStore record, so once a request handler has checked
// a chunk it hands the record down the store stack and nothing after
// the check hashes, re-checksums or restages the bytes: DiskStore
// appends the record verbatim and ReplicatedStore sends it to remote
// owners as it is (each receiving node runs its own boundary check).
//
// The record rides the request context, because store decorators
// forward only PutCtx(ctx, sum, data). It vouches for exactly the sum
// and payload slice it was minted for: a store handed any other slice
// (a copy, a re-slice, a different digest) or no context at all runs
// the full check, exactly as before.

// verifiedKey is the context key of the verified record.
type verifiedKey struct{}

// withVerifiedRecord returns ctx carrying rec, a record whose header
// and payload have been checked against each other and against the
// header's digest. Only code that has run that check (sealRecord,
// handleBinPut's frame read) or copied such a record whole may call it.
func withVerifiedRecord(ctx context.Context, rec []byte) context.Context {
	return context.WithValue(ctx, verifiedKey{}, rec)
}

// verifiedRecord returns the verified record ctx carries for exactly
// (sum, data) — same digest, and data the very payload slice of that
// record — or nil, in which case the caller must check data itself.
func verifiedRecord(ctx context.Context, sum Sum, data []byte) []byte {
	rec, _ := ctx.Value(verifiedKey{}).([]byte)
	return boundRecord(rec, sum, data)
}

// boundRecord returns rec if it is the record of exactly (sum, data):
// same digest, and data the very payload slice of rec. Otherwise nil.
func boundRecord(rec []byte, sum Sum, data []byte) []byte {
	if len(rec) != recHeaderSize+len(data) || Sum(rec[:16]) != sum {
		return nil
	}
	if unsafe.SliceData(rec[recHeaderSize:]) != unsafe.SliceData(data) {
		return nil
	}
	return rec
}

// The read side has a counterpart. A store that reads a chunk as a
// whole CRC-checked record (DiskStore) returns its payload as a slice
// of that record, and a caller that wants the record too (CachedStore,
// to serve hits as stored frames) passes a record sink down in the
// context. Decorators forward GetCtx(ctx, sum) and so carry the sink;
// the caller trusts what lands in it only through boundRecord.

// recordSinkKey is the context key of a read's record sink.
type recordSinkKey struct{}

// withRecordSink returns ctx asking the store read below to leave in
// *dst the record its returned payload is a slice of, if it has one.
func withRecordSink(ctx context.Context, dst *[]byte) context.Context {
	return context.WithValue(ctx, recordSinkKey{}, dst)
}

// keepRecord hands rec, a record whose CRC the read has just checked,
// to ctx's record sink, if ctx has one.
func keepRecord(ctx context.Context, rec []byte) {
	if dst, ok := ctx.Value(recordSinkKey{}).(*[]byte); ok {
		*dst = rec
	}
}

// checkPut is the digest check every verifying store runs before a
// Put: free for a payload the context vouches for, one MD5 pass
// otherwise.
func checkPut(ctx context.Context, sum Sum, data []byte) error {
	if verifiedRecord(ctx, sum, data) == nil && SumBytes(data) != sum {
		return errBadDigest
	}
	return nil
}

// sealRecord checks and seals the n-byte payload that sits at
// buf[recHeaderSize:]: one MD5 pass against sum, then the header CRC.
// It returns the record buf[:recHeaderSize+n]. This is the boundary
// check for a chunk that arrived without a frame header (a JSON chunk
// PUT) or from a caller that offered no verified record.
func sealRecord(buf []byte, sum Sum, n int) ([]byte, error) {
	payload := buf[recHeaderSize : recHeaderSize+n]
	if SumBytes(payload) != sum {
		return nil, errBadDigest
	}
	encodeHeader(buf[:recHeaderSize], sum, uint32(n), payload)
	return buf[:recHeaderSize+n], nil
}
