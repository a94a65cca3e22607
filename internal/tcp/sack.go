package tcp

import (
	"sort"

	"wtcp/internal/packet"
)

// scoreboard tracks the byte ranges above snd_una the receiver has
// selectively acknowledged, so retransmission passes (Tahoe's go-back-N
// after a timeout or third dupack) can skip data already delivered.
//
// This is a simplified RFC 2018 sender: it performs no pipe accounting
// (RFC 3517); it only prevents redundant retransmissions, which is the
// dominant cost under the paper's burst losses.
type scoreboard struct {
	blocks []packet.SACKBlock // disjoint, sorted by Start
}

// maxScoreboardBlocks bounds memory against a pathological peer.
const maxScoreboardBlocks = 64

// record merges newly advertised blocks.
func (sb *scoreboard) record(blocks []packet.SACKBlock) {
	for _, b := range blocks {
		if b.End <= b.Start {
			continue
		}
		sb.blocks = append(sb.blocks, b)
	}
	if len(sb.blocks) == 0 {
		return
	}
	sort.Slice(sb.blocks, func(i, j int) bool { return sb.blocks[i].Start < sb.blocks[j].Start })
	merged := sb.blocks[:1]
	for _, b := range sb.blocks[1:] {
		last := &merged[len(merged)-1]
		if b.Start <= last.End {
			if b.End > last.End {
				last.End = b.End
			}
			continue
		}
		merged = append(merged, b)
	}
	if len(merged) > maxScoreboardBlocks {
		merged = merged[:maxScoreboardBlocks]
	}
	sb.blocks = merged
}

// advance discards state at or below the new cumulative ack.
func (sb *scoreboard) advance(una int64) {
	out := sb.blocks[:0]
	for _, b := range sb.blocks {
		if b.End <= una {
			continue
		}
		if b.Start < una {
			b.Start = una
		}
		out = append(out, b)
	}
	sb.blocks = out
}

// covered reports whether [start, end) is wholly inside one sacked block.
func (sb *scoreboard) covered(start, end int64) bool {
	for _, b := range sb.blocks {
		if b.Start <= start && end <= b.End {
			return true
		}
		if b.Start > start {
			break
		}
	}
	return false
}
