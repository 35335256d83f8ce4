package switchfab

import "nocemu/internal/buffer"

// BufferStats returns the buffer statistics per input lane.
func (s *Switch) BufferStats() []buffer.Stats {
	s.settle()
	out := make([]buffer.Stats, len(s.lanes))
	for r := range s.lanes {
		out[r] = s.lanes[r].Stats()
	}
	return out
}
