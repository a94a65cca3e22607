package oracle

import "slices"

// intervalSet is a small ordered set of half-open byte ranges [start, end),
// merged on insert. It tracks which bytes the source has retransmitted so
// Karn's backoff-reset rule can ask: does this ACK cover any fresh byte?
// The set stays tiny (ranges below snd_una are pruned on every new ACK),
// so linear operations are fine.
type intervalSet struct {
	spans []span
}

type span struct {
	start, end int64
}

// add inserts [start, end), merging overlapping or adjacent spans. It
// edits the set in place, so a retransmission costs no allocation once
// the backing array has grown to the handful of spans a window can hold.
func (s *intervalSet) add(start, end int64) {
	if end <= start {
		return
	}
	// spans[i:j] are the ones the new range overlaps or touches.
	i := 0
	for i < len(s.spans) && s.spans[i].end < start {
		i++
	}
	j := i
	for ; j < len(s.spans) && s.spans[j].start <= end; j++ {
		if s.spans[j].start < start {
			start = s.spans[j].start
		}
		if s.spans[j].end > end {
			end = s.spans[j].end
		}
	}
	if i == j {
		s.spans = slices.Insert(s.spans, i, span{start, end})
		return
	}
	s.spans[i] = span{start, end}
	s.spans = slices.Delete(s.spans, i+1, j)
}

// covers reports whether every byte of [start, end) is in the set. An
// empty range is trivially covered.
func (s *intervalSet) covers(start, end int64) bool {
	for _, sp := range s.spans {
		if start >= end {
			return true
		}
		if sp.start > start {
			return false
		}
		if sp.end > start {
			start = sp.end
		}
	}
	return start >= end
}

// prune drops all bytes below the given offset (they were acknowledged).
func (s *intervalSet) prune(below int64) {
	out := s.spans[:0]
	for _, sp := range s.spans {
		if sp.end <= below {
			continue
		}
		if sp.start < below {
			sp.start = below
		}
		out = append(out, sp)
	}
	s.spans = out
}
