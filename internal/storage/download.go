package storage

import (
	"fmt"
	"time"
)

// Download is a resumable retrieval. The paper observes that 28 % of
// retrieved files are ~150 MB and recommends "support for resuming a
// failed download, to avoid downloading from the beginning after
// failures that could be frequent for mobile network" (§3.1.4).
// A Download keeps the chunk manifest and completed prefix, so Resume
// continues from the first missing chunk after any error.
// The file assembles in place: the full buffer is allocated once and
// every chunk downloads straight into its slot, so a resume-heavy
// 150 MB retrieval costs one allocation instead of one per chunk plus
// a final assembly copy.
type Download struct {
	c        *Client
	frontend string
	sums     []Sum
	size     int64
	buf      []byte // the assembling file
	have     []bool // per-chunk completion
	done     int    // chunks fetched so far
}

// NewDownload resolves url and issues the file retrieval operation
// request, returning a Download ready to Resume.
func (c *Client) NewDownload(url string) (*Download, error) {
	budget := c.newBudget()
	res, err := c.resolve(url, budget)
	if err != nil {
		return nil, err
	}
	var op FileOpResponse
	err = c.postJSON(res.FrontEnd, "/op/retrieve", FileOpRequest{
		UserID:   c.UserID,
		DeviceID: c.DeviceID,
		Device:   c.Device.String(),
		FileMD5:  res.FileMD5,
		Size:     res.Size,
		Shard:    res.Shard,
	}, &op, budget)
	if err != nil {
		return nil, err
	}
	sums := make([]Sum, len(op.ChunkMD5s))
	for i, s := range op.ChunkMD5s {
		if sums[i], err = ParseSum(s); err != nil {
			return nil, err
		}
	}
	// Every chunk but the last is exactly ChunkSize by construction
	// (SplitSums), so the in-place layout is known up front — reject
	// metadata that contradicts it before allocating.
	n := int64(len(sums))
	if n > 0 && (res.Size <= (n-1)*ChunkSize || res.Size > n*ChunkSize) {
		return nil, fmt.Errorf("storage: metadata size %d inconsistent with %d chunks", res.Size, n)
	}
	return &Download{
		c:        c,
		frontend: res.FrontEnd,
		sums:     sums,
		size:     res.Size,
		buf:      make([]byte, res.Size),
		have:     make([]bool, len(sums)),
	}, nil
}

// Done reports how many chunks have been fetched.
func (d *Download) Done() int { return d.done }

// Total reports the chunk count of the file.
func (d *Download) Total() int { return len(d.sums) }

// Complete reports whether every chunk has arrived.
func (d *Download) Complete() bool { return d.done == len(d.sums) }

// Resume fetches the remaining chunks sequentially, stopping at the
// first error; already-fetched chunks are never re-transferred. Call
// it again after a failure to continue where it left off. Each Resume
// gets a fresh retry budget.
func (d *Download) Resume() error {
	budget := d.c.newBudget()
	for i := range d.sums {
		if d.have[i] {
			continue
		}
		if d.done > 0 && d.c.InterChunkDelay != nil {
			time.Sleep(d.c.InterChunkDelay())
		}
		lo := int64(i) * ChunkSize
		hi := lo + ChunkSize
		if hi > d.size {
			hi = d.size
		}
		// getChunk reads into a pooled scratch buffer and copies the
		// verified bytes straight into this chunk's slot of the file.
		data, err := d.c.getChunk(d.frontend, d.sums[i], budget, d.buf[lo:lo:hi])
		if err != nil {
			return fmt.Errorf("chunk %d/%d: %w", i+1, len(d.sums), err)
		}
		if int64(len(data)) != hi-lo {
			return fmt.Errorf("chunk %d/%d: chunk length %d does not fit file layout", i+1, len(d.sums), len(data))
		}
		d.have[i] = true
		d.done++
	}
	return nil
}

// Bytes returns the assembled file; it errors if the download is
// incomplete. The slice is the download's internal assembly buffer
// (no final copy); it stays valid after the Download is dropped.
func (d *Download) Bytes() ([]byte, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("storage: download incomplete (%d/%d chunks)", d.done, len(d.sums))
	}
	return d.buf, nil
}
