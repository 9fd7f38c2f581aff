package stream

import "alveare/internal/arch"

// DefaultOverlap is the boundary overlap in bytes, shared by the
// divide-and-conquer multicore engine and the streaming window (the
// paper's DPU baseline makes the same trade on its 16 KiB jobs).
const DefaultOverlap = 256

// Chunk is one divide-and-conquer unit of an n-byte stream: the chunk
// owns the matches starting inside [Lo, Hi) and may read ahead through
// Ext (at most Hi+overlap) to complete them.
type Chunk struct {
	Lo, Hi, Ext int
}

// Plan splits an n-byte stream into up to parts chunks of equal size,
// each extended by overlap read-ahead bytes, clamped to the stream.
// Fewer than parts chunks are returned when the stream is too short to
// give every part a non-empty owned range; a single (possibly empty)
// chunk is always returned so degenerate inputs still run.
func Plan(n, parts, overlap int) []Chunk {
	if parts < 1 {
		parts = 1
	}
	size := (n + parts - 1) / parts
	if size == 0 {
		size = 1
	}
	chunks := make([]Chunk, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * size
		if lo >= n && i > 0 {
			break
		}
		hi := lo + size
		if hi > n {
			hi = n
		}
		ext := hi + overlap
		if ext > n {
			ext = n
		}
		chunks = append(chunks, Chunk{Lo: lo, Hi: hi, Ext: ext})
	}
	return chunks
}

// OwnMatches translates window-relative matches (found over
// data[lo:ext]) to stream offsets and keeps only those owned by the
// chunk — the ones starting inside [lo, hi). Matches are assumed to be
// in ascending start order, as FindAll emits them, so the first
// non-owned match ends the scan.
func OwnMatches(ms []arch.Match, lo, hi int) []arch.Match {
	var out []arch.Match
	for _, m := range ms {
		start := lo + m.Start
		if start >= hi {
			break // owned by the next chunk
		}
		out = append(out, arch.Match{Start: start, End: lo + m.End})
	}
	return out
}
