package ethernet

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestMACClassification(t *testing.T) {
	if HostMAC(1).IsMulticast() {
		t.Error("host MAC classified as multicast")
	}
	if !(MAC{0x01, 0x00, 0x5e, 0, 0, 1}).IsMulticast() {
		t.Error("group MAC not classified as multicast")
	}
	if !Broadcast.IsMulticast() || !Broadcast.IsBroadcast() {
		t.Error("broadcast misclassified")
	}
	if HostMAC(5).IsBroadcast() {
		t.Error("host MAC classified as broadcast")
	}
}

func TestMACDistinct(t *testing.T) {
	seen := map[MAC]bool{}
	for i := 0; i < 100; i++ {
		for _, m := range []MAC{HostMAC(i), SwitchMAC(i)} {
			if seen[m] {
				t.Fatalf("duplicate MAC %s", m)
			}
			seen[m] = true
		}
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x00, 0x5e, 0x00, 0x00, 0x2a}
	if m.String() != "02:00:5e:00:00:2a" {
		t.Errorf("String = %q", m.String())
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Dst:       HostMAC(2),
		Src:       HostMAC(1),
		VID:       100,
		PCP:       7,
		EtherType: TypeTSN,
		Payload:   []byte("hello tsn"),
		FlowID:    1234,
		Seq:       56,
		Class:     ClassTS,
		SentAt:    65 * sim.Microsecond,
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.VID != f.VID || g.PCP != f.PCP ||
		g.EtherType != f.EtherType || g.FlowID != f.FlowID || g.Seq != f.Seq ||
		g.Class != f.Class || g.SentAt != f.SentAt || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", g, f)
	}
}

func TestFrameRoundTripNonTSN(t *testing.T) {
	f := &Frame{
		Dst:       SwitchMAC(1),
		Src:       SwitchMAC(2),
		VID:       1,
		PCP:       6,
		EtherType: TypePTP,
		Payload:   []byte{1, 2, 3, 4},
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Payload, f.Payload) || g.EtherType != TypePTP {
		t.Fatalf("PTP round trip mismatch: %+v", g)
	}
}

// Property: Marshal/Unmarshal is lossless over the dataplane-visible
// field space.
func TestFrameCodecProperty(t *testing.T) {
	prop := func(dst, src [6]byte, vid uint16, pcp uint8, flow, seq uint32, cls uint8, payload []byte) bool {
		f := &Frame{
			Dst: dst, Src: src,
			VID: vid & 0x0fff, PCP: pcp & 0x7,
			EtherType: TypeTSN,
			Payload:   payload,
			FlowID:    flow, Seq: seq,
			Class: Class(cls % 3),
		}
		g, err := Unmarshal(f.Marshal())
		if err != nil {
			return false
		}
		return g.Dst == f.Dst && g.Src == f.Src && g.VID == f.VID &&
			g.PCP == f.PCP && g.FlowID == f.FlowID && g.Seq == f.Seq &&
			g.Class == f.Class && bytes.Equal(g.Payload, f.Payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Error("short frame accepted")
	}
	// No VLAN tag.
	raw := make([]byte, 64)
	if _, err := Unmarshal(raw); err == nil {
		t.Error("untagged frame accepted")
	}
	// Truncated tester header.
	f := &Frame{EtherType: TypeTSN}
	b := f.Marshal()
	if _, err := Unmarshal(b[:20]); err == nil {
		t.Error("truncated tester header accepted")
	}
}

func TestWireBytesMinimum(t *testing.T) {
	f := &Frame{Payload: nil}
	if f.WireBytes() != MinFrameBytes {
		t.Errorf("empty frame WireBytes = %d, want %d", f.WireBytes(), MinFrameBytes)
	}
	f.Payload = make([]byte, 1000)
	want := HeaderBytes + VLANTagBytes + 1000 + FCSBytes
	if f.WireBytes() != want {
		t.Errorf("WireBytes = %d, want %d", f.WireBytes(), want)
	}
}

func TestCloneHeaderSharesPayload(t *testing.T) {
	f := &Frame{Payload: []byte{1, 2, 3}, FlowID: 9, VID: 7}
	g := f.CloneHeader()
	g.FlowID = 10
	g.VID = 8
	if f.FlowID != 9 || f.VID != 7 {
		t.Error("CloneHeader header fields alias original")
	}
	if &g.Payload[0] != &f.Payload[0] {
		t.Error("CloneHeader copied the payload; want shared bytes")
	}
}

func TestClassString(t *testing.T) {
	if ClassTS.String() != "TS" || ClassRC.String() != "RC" || ClassBE.String() != "BE" {
		t.Error("class names wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Error("unknown class formatting wrong")
	}
}

func TestTxTime(t *testing.T) {
	// 64B at 1 Gbps = 512 ns.
	if got := TxTime(64, Gbps); got != 512*sim.Nanosecond {
		t.Errorf("TxTime(64B, 1Gbps) = %v, want 512ns", got)
	}
	// 1250 bytes at 100 Mbps = 100 µs.
	if got := TxTime(1250, 100*Mbps); got != 100*sim.Microsecond {
		t.Errorf("TxTime(1250B, 100Mbps) = %v, want 100µs", got)
	}
}

func TestTxTimeRoundsUp(t *testing.T) {
	// 1 byte at 3 bps = ceil(8/3 s) = 2666666667 ns.
	got := TxTime(1, 3)
	if got != sim.Time(2666666667) {
		t.Errorf("TxTime rounding = %v", got)
	}
}

func TestTxTimePanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate did not panic")
		}
	}()
	TxTime(64, 0)
}

func TestFrameTxTimeIncludesOverhead(t *testing.T) {
	f := &Frame{} // 64B minimum
	// (64+20)B at 1 Gbps = 672 ns.
	if got := FrameTxTime(f, Gbps); got != 672*sim.Nanosecond {
		t.Errorf("FrameTxTime = %v, want 672ns", got)
	}
}

func TestPayloadForWireSize(t *testing.T) {
	for _, size := range []int{64, 128, 256, 512, 1024, 1500} {
		p := PayloadForWireSize(size)
		f := &Frame{Payload: make([]byte, p)}
		if f.WireBytes() != size {
			t.Errorf("size %d: WireBytes = %d", size, f.WireBytes())
		}
	}
	if PayloadForWireSize(10) != 0 {
		t.Error("tiny wire size should clamp payload at 0")
	}
}

// Property: TxTime is monotone in both byte count and (inversely) rate,
// and never zero for a non-empty frame.
func TestTxTimeMonotoneProperty(t *testing.T) {
	prop := func(aRaw, bRaw uint16, rateRaw uint8) bool {
		a, b := int(aRaw%3000)+1, int(bRaw%3000)+1
		if a > b {
			a, b = b, a
		}
		rate := Rate(int64(rateRaw%100)+1) * Mbps
		ta, tb := TxTime(a, rate), TxTime(b, rate)
		if ta > tb || ta <= 0 {
			return false
		}
		// Higher rate never takes longer.
		return TxTime(b, rate*2) <= tb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendMarshalMatchesMarshal(t *testing.T) {
	for _, f := range []*Frame{
		{Dst: HostMAC(1), Src: HostMAC(2), VID: 100, PCP: 7, EtherType: TypeTSN,
			Payload: []byte{1, 2, 3, 4}, FlowID: 5, Seq: 6, Class: ClassTS, SentAt: 777},
		{Dst: HostMAC(3), Src: HostMAC(4), VID: 1, PCP: 0, EtherType: TypeVLAN,
			Payload: []byte{9, 8}},
		{EtherType: TypePTP},
	} {
		want := f.Marshal()
		if len(want) != f.MarshaledBytes() {
			t.Fatalf("MarshaledBytes = %d, Marshal produced %d", f.MarshaledBytes(), len(want))
		}
		got := f.AppendMarshal(nil)
		if string(got) != string(want) {
			t.Fatalf("AppendMarshal(nil) = %x, want %x", got, want)
		}
		// Appending after a prefix keeps the prefix and encodes after it.
		pre := f.AppendMarshal([]byte{0xAA, 0xBB})
		if pre[0] != 0xAA || pre[1] != 0xBB || string(pre[2:]) != string(want) {
			t.Fatalf("AppendMarshal with prefix mangled output")
		}
	}
}

func TestAppendMarshalReusedBufferZeroAlloc(t *testing.T) {
	f := &Frame{Dst: HostMAC(1), Src: HostMAC(2), VID: 100, PCP: 7,
		EtherType: TypeTSN, Payload: make([]byte, 1000), FlowID: 1, Seq: 2, Class: ClassTS}
	buf := f.AppendMarshal(nil)
	allocs := testing.AllocsPerRun(100, func() {
		buf = f.AppendMarshal(buf[:0])
	})
	if allocs > 0 {
		t.Fatalf("AppendMarshal into recycled buffer allocated %.1f/run, want 0", allocs)
	}
}

func TestUnmarshalNoCopyAliases(t *testing.T) {
	f := &Frame{Dst: HostMAC(1), Src: HostMAC(2), VID: 9, PCP: 3,
		EtherType: TypeTSN, Payload: []byte{10, 20, 30}, FlowID: 4, Seq: 5, Class: ClassRC}
	buf := f.Marshal()
	g, err := UnmarshalNoCopy(buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.FlowID != 4 || g.Seq != 5 || g.Class != ClassRC || len(g.Payload) != 3 {
		t.Fatalf("UnmarshalNoCopy decoded %+v", g)
	}
	// The no-copy payload aliases the input buffer.
	buf[len(buf)-3] = 99
	if g.Payload[0] != 99 {
		t.Error("UnmarshalNoCopy payload does not alias input")
	}
	// The copying variant owns its bytes.
	buf2 := f.Marshal()
	h, err := Unmarshal(buf2)
	if err != nil {
		t.Fatal(err)
	}
	buf2[len(buf2)-3] = 99
	if h.Payload[0] != 10 {
		t.Error("Unmarshal payload aliases input; want owned copy")
	}
}
