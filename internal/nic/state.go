// Snapshot support for the network interfaces (DESIGN.md §13).
//
// The injector serializes its credit counter, the queued flit images in
// queue order (the ring is normalized to head 0 on restore; the head
// index is not observable), the packet sequence counter and the
// statistics. The ejector serializes its reassembly FIFO, the
// partial-assembly table and its counters. Wiring, queue capacity and
// buffer depth are platform configuration, validated rather than
// restored.
package nic

import (
	"fmt"

	"nocemu/internal/flit"
	"nocemu/internal/state"
)

// SaveState serializes the injector.
func (n *Injector) SaveState(w *state.Writer) {
	w.Int(n.credits)
	w.Int(len(n.ring))
	w.Int(n.count)
	for i := 0; i < n.count; i++ {
		n.ring[(n.head+i)%len(n.ring)].SaveState(w)
	}
	w.U64(n.seq)
	w.U64(n.packetsSent)
	w.U64(n.flitsSent)
	w.U64(n.stallCycles)
	w.Int(n.peakQueue)
}

// LoadState restores the injector, materializing the queued flits in
// the flits its ring held, fresh heap images past those (see the flit
// package's snapshot notes).
func (n *Injector) LoadState(r *state.Reader) error {
	credits := r.Int()
	capacity := r.Int()
	count := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if credits < 0 {
		return fmt.Errorf("nic: injector %d snapshot with %d credits", n.endpoint, credits)
	}
	if capacity != len(n.ring) {
		return fmt.Errorf("nic: injector %d snapshot queue capacity %d, built %d", n.endpoint, capacity, len(n.ring))
	}
	if count < 0 || count > capacity {
		return fmt.Errorf("nic: injector %d snapshot occupancy %d of %d", n.endpoint, count, capacity)
	}
	// The ring's flits are the injector's (a send clears its slot):
	// packed to the front, the ones the restored queue needs are reused.
	held := 0
	for i, f := range n.ring {
		if f != nil {
			n.ring[i], n.ring[held] = nil, f
			held++
		}
	}
	clear(n.ring[count:])
	n.credits = credits
	n.head = 0
	n.count = count
	for i := 0; i < count; i++ {
		f := flit.Reuse(n.ring[i])
		n.ring[i] = f
		if err := f.LoadState(r); err != nil {
			return err
		}
		if f.VC != 0 { // an injector sends on its wire's channel 0
			return fmt.Errorf("nic: injector %d snapshot queues a flit on virtual channel %d", n.endpoint, f.VC)
		}
		// Offer queues whole packets: behind the front, a flit is a head
		// after a tail and continues its predecessor's packet otherwise.
		if i > 0 {
			if prev := n.ring[i-1]; prev.Kind.IsTail() != f.Kind.IsHead() ||
				!f.Kind.IsHead() && (f.Packet != prev.Packet || f.Index != prev.Index+1) {
				return fmt.Errorf("nic: injector %d snapshot queues %s after %s", n.endpoint, f, prev)
			}
		}
	}
	n.seq = r.U64()
	n.packetsSent = r.U64()
	n.flitsSent = r.U64()
	n.stallCycles = r.U64()
	n.peakQueue = r.Int()
	return r.Err()
}

// Credits returns the injector's credits: those it holds and those on
// their way back to it.
func (n *Injector) Credits() int { return n.credits + int(n.creditIn.Pending()) }

// Flits calls fn on every queued flit.
func (n *Injector) Flits(fn func(*flit.Flit)) {
	for i := 0; i < n.count; i++ {
		fn(n.ring[(n.head+i)%len(n.ring)])
	}
}

// SaveState serializes the ejector.
func (e *Ejector) SaveState(w *state.Writer) {
	e.buf.SaveState(w)
	e.asm.SaveState(w)
	w.U64(e.flitsReceived)
	w.U64(e.corruptedFlits)
}

// LoadState restores the ejector.
func (e *Ejector) LoadState(r *state.Reader) error {
	if err := e.buf.LoadState(r); err != nil {
		return err
	}
	if err := e.asm.LoadState(r); err != nil {
		return err
	}
	e.flitsReceived = r.U64()
	e.corruptedFlits = r.U64()
	return r.Err()
}

// Progress reports how far the assembler has packet id (flit.Assembler.Progress).
func (e *Ejector) Progress(id flit.PacketID) (got, want uint16, begun bool) {
	return e.asm.Progress(id)
}

// Inbound returns the ejector's flits on channel vc: those it buffers
// and those on their way to it.
func (e *Ejector) Inbound(vc int) (n int) {
	for k := 0; k < e.buf.Len(); k++ {
		if int(e.buf.At(k).VC) == vc {
			n++
		}
	}
	for _, f := range e.in.OnWire() {
		if f != nil && int(f.VC) == vc {
			n++
		}
	}
	return n
}

// Flits calls fn on every buffered flit.
func (e *Ejector) Flits(fn func(*flit.Flit)) {
	for k := 0; k < e.buf.Len(); k++ {
		fn(e.buf.At(k))
	}
}

// CheckRestored verifies, once the wires are restored as well, what the
// ejector will assemble: every buffered flit, then every flit its input
// wire carries, is for this endpoint and continues its packet where the
// assembler left it — a head for a packet it has not begun, else the
// next flit of the length it began.
func (e *Ejector) CheckRestored() error {
	stream := e.in.OnWire()
	n := e.buf.Len()
	for k := 0; k < n+len(stream); k++ {
		var f *flit.Flit
		if k < n {
			f = e.buf.At(k)
		} else if f = stream[k-n]; f == nil {
			break
		}
		if f.Dst != e.endpoint {
			return fmt.Errorf("nic: ejector %d snapshot holds a flit for endpoint %d", e.endpoint, f.Dst)
		}
		got, want, begun := e.asm.Progress(f.Packet)
		for j := k - 1; j >= 0; j-- { // the stream's previous flit of the packet
			var p *flit.Flit
			if j < n {
				p = e.buf.At(j)
			} else {
				p = stream[j-n]
			}
			if p.Packet == f.Packet {
				got, want, begun = p.Index+1, p.PacketLen, true
				break
			}
		}
		if f.Kind.IsHead() == begun || begun && (f.Index != got || f.PacketLen != want) {
			return fmt.Errorf("nic: ejector %d snapshot holds %s out of its packet's order", e.endpoint, f)
		}
	}
	return nil
}
