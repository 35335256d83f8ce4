package flit

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"nocemu/internal/state"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Head:     "head",
		Body:     "body",
		Tail:     "tail",
		HeadTail: "headtail",
		Kind(9):  "kind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !Head.IsHead() || Head.IsTail() {
		t.Error("Head predicates wrong")
	}
	if Body.IsHead() || Body.IsTail() {
		t.Error("Body predicates wrong")
	}
	if Tail.IsHead() || !Tail.IsTail() {
		t.Error("Tail predicates wrong")
	}
	if !HeadTail.IsHead() || !HeadTail.IsTail() {
		t.Error("HeadTail predicates wrong")
	}
}

func TestMakePacketIDRoundTrip(t *testing.T) {
	f := func(src uint16, seq uint64) bool {
		seq &= 1<<48 - 1
		id := MakePacketID(EndpointID(src), seq)
		return id.Src() == EndpointID(src) && id.Seq() == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMakePacketIDSeqMasked(t *testing.T) {
	// Sequence numbers beyond 48 bits must not corrupt the source field.
	id := MakePacketID(7, 1<<60|42)
	if id.Src() != 7 {
		t.Errorf("src corrupted: %d", id.Src())
	}
	if id.Seq() != 42 {
		t.Errorf("seq = %d, want 42", id.Seq())
	}
}

func TestFlitValidate(t *testing.T) {
	good := &Flit{Kind: Head, Packet: MakePacketID(3, 0), Src: 3, Dst: 4, Index: 0, PacketLen: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("valid flit rejected: %v", err)
	}
	bad := []*Flit{
		nil,
		{Kind: 0, PacketLen: 1},
		{Kind: Head, PacketLen: 0},
		{Kind: Head, PacketLen: 2, Index: 2},
		{Kind: Head, PacketLen: 2, Index: 1},     // head not at 0
		{Kind: Tail, PacketLen: 3, Index: 1},     // tail not at end
		{Kind: HeadTail, PacketLen: 2, Index: 0}, // headtail in multi-flit packet
		{Kind: Head, PacketLen: 2, Index: 0, Packet: MakePacketID(5, 0)}, // src mismatch (Src=0)
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: invalid flit accepted: %+v", i, f)
		}
	}
}

// expand is what a source does with a packet: validate it, then fill
// one fresh flit per index.
func expand(p *Packet) ([]*Flit, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	fs := make([]*Flit, p.Len)
	for i := range fs {
		fs[i] = &Flit{}
		p.Fill(fs[i], uint16(i))
	}
	return fs, nil
}

// mustFlits expands a packet that the test knows to be valid.
func mustFlits(t *testing.T, p *Packet) []*Flit {
	t.Helper()
	fs, err := expand(p)
	if err != nil {
		t.Fatalf("expand(%+v): %v", p, err)
	}
	return fs
}

func TestPacketFlitsSingle(t *testing.T) {
	p := &Packet{ID: MakePacketID(1, 9), Src: 1, Dst: 2, Len: 1, Payload: 77, BirthCycle: 5}
	fs := mustFlits(t, p)
	if len(fs) != 1 {
		t.Fatalf("got %d flits, want 1", len(fs))
	}
	f := fs[0]
	if f.Kind != HeadTail || f.Payload != 77 || f.BirthCycle != 5 {
		t.Errorf("bad single flit: %+v", f)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("generated flit invalid: %v", err)
	}
}

func TestPacketFlitsFraming(t *testing.T) {
	p := &Packet{ID: MakePacketID(2, 1), Src: 2, Dst: 3, Len: 5}
	fs := mustFlits(t, p)
	if len(fs) != 5 {
		t.Fatalf("got %d flits, want 5", len(fs))
	}
	if fs[0].Kind != Head {
		t.Errorf("first flit kind = %v", fs[0].Kind)
	}
	for i := 1; i < 4; i++ {
		if fs[i].Kind != Body {
			t.Errorf("flit %d kind = %v, want body", i, fs[i].Kind)
		}
	}
	if fs[4].Kind != Tail {
		t.Errorf("last flit kind = %v", fs[4].Kind)
	}
	for i, f := range fs {
		if int(f.Index) != i {
			t.Errorf("flit %d has index %d", i, f.Index)
		}
		if err := f.Validate(); err != nil {
			t.Errorf("flit %d invalid: %v", i, err)
		}
	}
}

// A zero-length packet would frame no tail flit and jam the wormhole
// pipeline; Validate must reject it.
func TestPacketFlitsZeroLength(t *testing.T) {
	p := &Packet{ID: MakePacketID(1, 0), Src: 1, Dst: 2, Len: 0}
	if err := p.Validate(); err == nil {
		t.Fatal("zero-length packet accepted")
	}
	// Mismatched packet-ID source is equally structural.
	bad := &Packet{ID: MakePacketID(5, 0), Src: 1, Dst: 2, Len: 2}
	if err := bad.Validate(); err == nil {
		t.Error("src-mismatched packet accepted")
	}
}

// Fill must fully overwrite stale state in a reused flit: a reused flit
// and a fresh one agree field for field.
func TestPacketFillMatchesFlits(t *testing.T) {
	for _, n := range []uint16{1, 2, 5} {
		p := &Packet{ID: MakePacketID(3, 7), Src: 3, Dst: 4, Len: n, Payload: 9, BirthCycle: 11}
		fs := mustFlits(t, p)
		for i := uint16(0); i < n; i++ {
			f := Flit{Kind: Body, Packet: 999, Index: 12, Payload: 1, InjectCycle: 5, Check: 3, VC: 2}
			p.Fill(&f, i)
			if f != *fs[i] {
				t.Errorf("len %d flit %d: reused = %+v, fresh = %+v", n, i, f, *fs[i])
			}
		}
	}
}

// Property: for any length 1..64, expanding a packet into flits and
// pushing them through an assembler returns the original packet exactly
// once, after exactly Len pushes.
func TestAssemblerRoundTripProperty(t *testing.T) {
	f := func(lenSeed uint8, src, dst uint16, payload uint32) bool {
		n := uint16(lenSeed%64) + 1
		p := &Packet{
			ID: MakePacketID(EndpointID(src), 123), Src: EndpointID(src),
			Dst: EndpointID(dst), Len: n, Payload: payload, BirthCycle: 42,
		}
		a := NewAssembler()
		fs, err := expand(p)
		if err != nil {
			return false
		}
		for i, fl := range fs {
			got, done, err := a.Push(fl)
			if err != nil {
				return false
			}
			if i < int(n)-1 {
				if done {
					return false
				}
				continue
			}
			if !done || got == nil {
				return false
			}
			if *got != *p {
				return false
			}
		}
		return len(a.partial) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssemblerInterleavedPackets(t *testing.T) {
	a := NewAssembler()
	p1 := &Packet{ID: MakePacketID(1, 0), Src: 1, Dst: 9, Len: 3}
	p2 := &Packet{ID: MakePacketID(2, 0), Src: 2, Dst: 9, Len: 2}
	f1, f2 := mustFlits(t, p1), mustFlits(t, p2)
	order := []*Flit{f1[0], f2[0], f1[1], f2[1], f1[2]}
	var completed []PacketID
	for _, fl := range order {
		pkt, done, err := a.Push(fl)
		if err != nil {
			t.Fatalf("push %v: %v", fl, err)
		}
		if done {
			completed = append(completed, pkt.ID)
		}
	}
	if len(completed) != 2 || completed[0] != p2.ID || completed[1] != p1.ID {
		t.Errorf("completion order = %v", completed)
	}
}

func TestAssemblerErrors(t *testing.T) {
	a := NewAssembler()
	p := &Packet{ID: MakePacketID(1, 0), Src: 1, Dst: 2, Len: 3}
	fs := mustFlits(t, p)

	// Body before head.
	if _, _, err := a.Push(fs[1]); err == nil {
		t.Error("body-before-head accepted")
	}
	if _, _, err := a.Push(fs[0]); err != nil {
		t.Fatalf("head rejected: %v", err)
	}
	// Duplicate head.
	if _, _, err := a.Push(fs[0]); err == nil {
		t.Error("duplicate head accepted")
	}
	// Skipped flit.
	if _, _, err := a.Push(fs[2]); err == nil {
		t.Error("out-of-order flit accepted")
	}
	if len(a.partial) != 1 {
		t.Errorf("pending = %d, want 1", len(a.partial))
	}
}

func TestAssemblerLengthMismatch(t *testing.T) {
	a := NewAssembler()
	p := &Packet{ID: MakePacketID(1, 0), Src: 1, Dst: 2, Len: 3}
	fs := mustFlits(t, p)
	if _, _, err := a.Push(fs[0]); err != nil {
		t.Fatal(err)
	}
	bad := *fs[1]
	bad.PacketLen = 4
	bad.Kind = Body
	if _, _, err := a.Push(&bad); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestAssemblerStateRoundTrip: the partial-assembly table saves in
// packet-ID order whatever order the heads arrived in, loads back into
// an assembler that finishes the packets, and a table naming one packet
// twice is rejected instead of silently keeping the last record.
func TestAssemblerStateRoundTrip(t *testing.T) {
	a := NewAssembler()
	var tails []*Flit
	for _, src := range []EndpointID{5, 2, 9} {
		fs := mustFlits(t, &Packet{ID: MakePacketID(src, 0), Src: src, Dst: 1, Len: 2})
		if _, _, err := a.Push(fs[0]); err != nil {
			t.Fatal(err)
		}
		tails = append(tails, fs[1])
	}
	w := &state.Writer{}
	a.SaveState(w)
	want := &state.Writer{}
	want.Int(3)
	for _, src := range []EndpointID{2, 5, 9} {
		want.U64(uint64(MakePacketID(src, 0)))
		want.U16(1)
		want.U16(2)
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("saved table %x, want %x", w.Bytes(), want.Bytes())
	}
	b := NewAssembler()
	if err := b.LoadState(state.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, f := range tails {
		if _, done, err := b.Push(f); err != nil || !done {
			t.Errorf("tail of packet %d after the load: done %v, %v", f.Packet, done, err)
		}
	}
	if len(b.partial) != 0 {
		t.Errorf("%d packets pending after their tails", len(b.partial))
	}

	dup := &state.Writer{}
	dup.Int(2)
	for _, got := range []uint16{1, 2} {
		dup.U64(uint64(MakePacketID(4, 0)))
		dup.U16(got)
		dup.U16(3)
	}
	if err := b.LoadState(state.NewReader(dup.Bytes())); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("LoadState of a table naming one packet twice = %v, want an error", err)
	}
	if len(b.partial) != 0 {
		t.Errorf("a rejected table left %d packets pending", len(b.partial))
	}
}
