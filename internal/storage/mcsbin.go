package storage

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"net/http"
	"sync"
)

// mcsbin/1 is the negotiated binary chunk dialect for the hot transfer
// path. A frame is exactly a DiskStore record:
//
//	sum[16] | len uint32 LE | crc32 uint32 LE | payload
//
// with the CRC covering the first 20 header bytes and the payload —
// so a disk-resident chunk's response IS the raw record region of the
// segment file, streamed without re-encoding or checksum recompute,
// and an uploaded frame can be verified with the same single pass the
// recovery scan uses. A frame whose len field is the tombstone
// sentinel (^uint32(0)) carries no payload and means "not found" in a
// batched GET response.
//
// Two endpoints speak it, both POST (the batch body is the request):
//
//	POST /v1/bin/get   body: count uint32 LE, then count×16-byte sums.
//	                   response: count frames, in request order,
//	                   not-found frames for absent chunks.
//	POST /v1/bin/put   body: count uint32 LE, then count frames.
//	                   query ?url= ties the chunks to a pending upload
//	                   exactly like PUT /v1/chunk/{md5}. Response is
//	                   the JSON FileOpResponse.
//
// Negotiation rides next to the existing X-MCS-API probe: capable
// servers stamp every response with "X-MCS-Bin: mcsbin/1", and a
// client only sends binary requests to a host it has seen the stamp
// from. Errors are rejected before any response byte is written and
// use the standard typed /v1 envelope, so the JSON/HTTP fallback is
// graceful in both directions.

// BinHeader is the binary-dialect capability header.
const BinHeader = "X-MCS-Bin"

// BinV1 is the current binary dialect tag.
const BinV1 = "mcsbin/1"

// binContentType labels binary request/response bodies.
const binContentType = "application/x-mcsbin1"

// binMaxBatch caps the frames one binary request may carry; it bounds
// the per-request pin count on the serving side and the assembled
// request body on the sending side (16 × 512 KB = 8 MB worst case).
const binMaxBatch = 16

// md5Pool recycles MD5 states for the streaming frame decode: batched
// transfers verify a digest per frame, and the pool keeps that from
// allocating a fresh hasher per chunk.
var md5Pool = sync.Pool{New: func() any { return md5.New() }}

// binFrame is one decoded frame. payload aliases the scratch buffer
// handed to readBinFrame, valid until the buffer's next use.
type binFrame struct {
	hdr      [recHeaderSize]byte // the frame header as received, CRC checked
	sum      Sum
	payload  []byte
	got      Sum // MD5 of payload, computed during the streaming read (readBinFrame only)
	notFound bool
}

// readBinFrame decodes one frame from r into buf. The payload CRC and
// MD5 are both folded into the read loop — one pass over the bytes as
// they arrive, no re-scan. Every malformed input fails closed with an
// error wrapping a package sentinel, so the server side maps it onto
// the typed envelope (truncation → bad_request, oversized →
// too_large, checksum mismatch → bad_digest) and a node reading a
// replica's frame refuses the bytes. This is the boundary check of a
// node that keeps or forwards the chunk.
func readBinFrame(r io.Reader, buf []byte) (binFrame, error) {
	h := md5Pool.Get().(hash.Hash)
	h.Reset()
	defer md5Pool.Put(h)
	f, err := decodeBinFrame(r, buf, h)
	if err == nil && !f.notFound {
		h.Sum(f.got[:0])
	}
	return f, err
}

// decodeBinFrame is the frame read loop behind readBinFrame. It folds
// each payload read into h; with h nil it checks the frame CRC and
// bounds only. A retrieving client reads frames that way, because it
// hashes the assembled file once instead, which proves every byte
// against FileMD5 (RetrieveFile).
func decodeBinFrame(r io.Reader, buf []byte, h hash.Hash) (binFrame, error) {
	var f binFrame
	hdr := f.hdr[:]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return f, fmt.Errorf("storage: mcsbin: truncated frame header: %w", io.ErrUnexpectedEOF)
	}
	copy(f.sum[:], hdr[:16])
	length := binary.LittleEndian.Uint32(hdr[16:20])
	want := binary.LittleEndian.Uint32(hdr[20:24])
	if length == tombstoneLen {
		if crc32.ChecksumIEEE(hdr[:20]) != want {
			return f, fmt.Errorf("%w: mcsbin not-found frame checksum mismatch", ErrBadDigest)
		}
		f.notFound = true
		return f, nil
	}
	if length > ChunkSize || int(length) > len(buf) {
		return f, fmt.Errorf("%w: mcsbin frame declares %d payload bytes", ErrTooLarge, length)
	}
	payload := buf[:length]
	crc := crc32.ChecksumIEEE(hdr[:20])
	for off := 0; off < int(length); {
		n, rerr := r.Read(payload[off:])
		if n > 0 {
			crc = crc32.Update(crc, crc32.IEEETable, payload[off:off+n])
			if h != nil {
				h.Write(payload[off : off+n])
			}
			off += n
		}
		if off >= int(length) {
			break
		}
		if rerr != nil {
			return f, fmt.Errorf("storage: mcsbin: truncated frame payload (%d of %d bytes): %w", off, length, io.ErrUnexpectedEOF)
		}
	}
	if crc != want {
		return f, fmt.Errorf("%w: mcsbin frame checksum mismatch for %s", ErrBadDigest, f.sum)
	}
	f.payload = payload
	return f, nil
}

// appendBinCount appends the u32 batch-count prefix.
func appendBinCount(dst []byte, n int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	return append(dst, b[:]...)
}

// appendBinNotFound appends a not-found frame for sum.
func appendBinNotFound(dst []byte, sum Sum) []byte {
	var hdr [recHeaderSize]byte
	encodeHeader(hdr[:], sum, tombstoneLen, nil)
	return append(dst, hdr[:]...)
}

// binNotFoundFrame renders a standalone not-found frame.
func binNotFoundFrame(sum Sum) []byte { return appendBinNotFound(nil, sum) }

// encodeBinGet builds a /v1/bin/get request body.
func encodeBinGet(sums []Sum) []byte {
	out := make([]byte, 4, 4+16*len(sums))
	binary.LittleEndian.PutUint32(out, uint32(len(sums)))
	for _, s := range sums {
		out = append(out, s[:]...)
	}
	return out
}

// decodeBinCount reads and bounds a batch count prefix.
func decodeBinCount(r io.Reader, max int) (int, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("storage: mcsbin: truncated batch header: %w", io.ErrUnexpectedEOF)
	}
	n := binary.LittleEndian.Uint32(b[:])
	if n == 0 {
		return 0, fmt.Errorf("storage: mcsbin: empty batch")
	}
	if int64(n) > int64(max) {
		return 0, fmt.Errorf("%w: mcsbin batch of %d exceeds %d", ErrTooLarge, n, max)
	}
	return int(n), nil
}

// decodeBinGetRequest reads a /v1/bin/get body.
func decodeBinGetRequest(r io.Reader, max int) ([]Sum, error) {
	n, err := decodeBinCount(r, max)
	if err != nil {
		return nil, err
	}
	sums := make([]Sum, n)
	for i := range sums {
		if _, err := io.ReadFull(r, sums[i][:]); err != nil {
			return nil, fmt.Errorf("storage: mcsbin: truncated digest list: %w", io.ErrUnexpectedEOF)
		}
	}
	return sums, nil
}

// binAdvertised reports whether a response came from a binary-capable
// server.
func binAdvertised(h http.Header) bool { return h.Get(BinHeader) == BinV1 }

// --- single-chunk helpers (replication fan-out, rebalancer) ------------

// binGetOneReq builds a single-chunk binary GET request against node.
func binGetOneReq(node string, sum Sum) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, node+"/v1/bin/get", bytes.NewReader(encodeBinGet([]Sum{sum})))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", binContentType)
	return req, nil
}

// binPutBody lays one chunk out as a complete single-frame
// /v1/bin/put body in one new buffer: count | sum | len | crc32 |
// payload. rec, when non-nil, is the chunk's verified record and is
// copied as is; otherwise the header is encoded (one CRC pass). Either
// way body[4:] is a record of the chunk.
func binPutBody(sum Sum, data, rec []byte) []byte {
	body := make([]byte, 4+recHeaderSize+len(data))
	binary.LittleEndian.PutUint32(body, 1)
	if rec != nil {
		copy(body[4:], rec)
		return body
	}
	encodeHeader(body[4:4+recHeaderSize], sum, uint32(len(data)), data)
	copy(body[4+recHeaderSize:], data)
	return body
}

// binPutOneReq builds a single-chunk binary PUT request against node
// from a binPutBody.
func binPutOneReq(node string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, node+"/v1/bin/put", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", binContentType)
	return req, nil
}

// binReadOneFrame consumes a single-chunk binary GET response: it
// verifies the frame CRC during the read and the MD5 against the
// requested digest, returning an owned copy of the payload. The CRC
// travels from the sender's segment file, so disk corruption on the
// far side fails here instead of propagating.
func binReadOneFrame(resp *http.Response, sum Sum) ([]byte, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	scratch := getFrameBuf()
	defer putFrameBuf(scratch)
	f, err := readBinFrame(resp.Body, payloadSlot(scratch))
	if err != nil {
		return nil, err
	}
	if f.notFound {
		return nil, ErrNotFound
	}
	if f.sum != sum || f.got != sum {
		return nil, fmt.Errorf("%w: mcsbin frame digest mismatch for %s", ErrBadDigest, sum)
	}
	out := make([]byte, len(f.payload))
	copy(out, f.payload)
	return out, nil
}
