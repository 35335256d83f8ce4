package flit

import "fmt"

// Validate checks the structural invariants of a packet description:
// what a source must hold to before it expands a packet.
func (p *Packet) Validate() error {
	switch {
	case p == nil:
		return fmt.Errorf("packet: nil")
	case p.Len == 0:
		return fmt.Errorf("packet: zero length")
	case p.ID.Src() != p.Src:
		return fmt.Errorf("packet: id source %d != src %d", p.ID.Src(), p.Src)
	}
	return nil
}
