package platform

// Drained reports whether no traffic remains in flight: all packets
// sent have been received and all source queues are empty.
func (p *Platform) Drained() bool {
	for _, tg := range p.tgs {
		if !tg.Injector().Drained() {
			return false
		}
	}
	var sent, recv uint64
	for _, tg := range p.tgs {
		sent += tg.Stats().Injector.PacketsSent
	}
	for _, tr := range p.trs {
		recv += tr.Stats().Packets
	}
	return sent == recv
}
