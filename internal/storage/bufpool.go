package storage

import (
	"io"
	"sync"
)

// frameBufPool recycles transfer-sized scratch buffers laid out as one
// record: a recHeaderSize header slot, then room for one chunk plus a
// byte, so an oversized body is detectable without growing. The
// front-end reads a chunk into the payload slot and seals or copies
// its header in front, which leaves a record DiskStore can append
// verbatim; the download paths use the payload slot alone. Steady-state
// transfer then allocates only the bytes that outlive the request.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, recHeaderSize+ChunkSize+1)
		return &b
	},
}

func getFrameBuf() *[]byte  { return frameBufPool.Get().(*[]byte) }
func putFrameBuf(b *[]byte) { frameBufPool.Put(b) }

// payloadSlot is the chunk-plus-a-byte region of a frame buffer.
func payloadSlot(b *[]byte) []byte { return (*b)[recHeaderSize:] }

// readBody fills buf from r until EOF and returns the number of bytes
// read. It reports overflow (the body did not fit in buf) instead of
// growing, which is how chunk-sized reads stay allocation-free.
func readBody(r io.Reader, buf []byte) (n int, overflow bool, err error) {
	for n < len(buf) {
		k, rerr := r.Read(buf[n:])
		n += k
		if rerr == io.EOF {
			return n, false, nil
		}
		if rerr != nil {
			return n, false, rerr
		}
	}
	// Buffer full: a successful extra read means the body is longer
	// than the buffer.
	var probe [1]byte
	k, rerr := r.Read(probe[:])
	if k > 0 {
		return n, true, nil
	}
	if rerr != nil && rerr != io.EOF {
		return n, false, rerr
	}
	return n, false, nil
}
