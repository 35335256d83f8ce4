package rtl

import "nocemu/internal/flit"

// FlitsReceived returns total flits delivered.
func (p *Platform) FlitsReceived() uint64 {
	var n uint64
	for _, tr := range p.trs {
		n += tr.flits
	}
	return n
}

// PacketsReceivedAt returns packets delivered to one receptor.
func (p *Platform) PacketsReceivedAt(ep flit.EndpointID) uint64 {
	if tr, ok := p.trs[ep]; ok {
		return tr.packets
	}
	return 0
}

// RunUntilDone advances until Done or maxCycles; it returns the cycles
// run and whether it finished.
func (p *Platform) RunUntilDone(maxCycles uint64) (uint64, bool) {
	const chunk = 256
	var run uint64
	for run < maxCycles {
		n := uint64(chunk)
		if run+n > maxCycles {
			n = maxCycles - run
		}
		p.RunCycles(n)
		run += n
		if p.Done() {
			return run, true
		}
	}
	return run, false
}
