package testbed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/pcap"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// The nanosecond-resolution libpcap format pcap.Writer emits, as
// pcapReader reads it back: the file header's magic and link type
// (DLT_EN10MB), and the largest record body.
const (
	pcapMagicNanos   = 0xa1b23c4d
	pcapLinkEthernet = 1
	pcapSnapLen      = 65535
)

// pcapReader iterates the frames of a capture pcap.Writer wrote, so a
// test can read a testbed capture back. Not safe for concurrent use.
type pcapReader struct {
	r     io.Reader
	buf   []byte // recycled record buffer; frames alias it (see next)
	count uint64
}

// newPcapReader validates the capture's file header and positions the
// reader at the first record. Only the nanosecond-resolution format
// pcap.Writer emits is accepted.
func newPcapReader(r io.Reader) (*pcapReader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != pcapMagicNanos {
		return nil, fmt.Errorf("pcap: unsupported magic %#x (want nanosecond pcap %#x)", magic, pcapMagicNanos)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != pcapLinkEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return &pcapReader{r: r}, nil
}

// next decodes the next record and returns its capture instant and
// frame. It returns io.EOF cleanly after the last record. The frame is
// decoded with ethernet.UnmarshalNoCopy onto the recycled record
// buffer, so it (and its Payload) is valid only until the following
// call.
func (pr *pcapReader) next() (sim.Time, *ethernet.Frame, error) {
	var rec [16]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := binary.LittleEndian.Uint32(rec[0:])
	nsec := binary.LittleEndian.Uint32(rec[4:])
	caplen := binary.LittleEndian.Uint32(rec[8:])
	if caplen > pcapSnapLen {
		return 0, nil, fmt.Errorf("pcap: record of %d bytes exceeds snap length", caplen)
	}
	if uint32(cap(pr.buf)) < caplen {
		pr.buf = make([]byte, caplen)
	}
	pr.buf = pr.buf[:caplen]
	if _, err := io.ReadFull(pr.r, pr.buf); err != nil {
		return 0, nil, fmt.Errorf("pcap: reading %d-byte record body: %w", caplen, err)
	}
	f, err := ethernet.UnmarshalNoCopy(pr.buf)
	if err != nil {
		return 0, nil, err
	}
	pr.count++
	return sim.Time(sec)*sim.Second + sim.Time(nsec), f, nil
}

func TestPcapReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	// Payload large enough that the writer adds no minimum-size padding,
	// so the decoded payload matches byte for byte.
	frames := []*ethernet.Frame{
		{Dst: ethernet.HostMAC(1), Src: ethernet.HostMAC(2), VID: 5, PCP: 7,
			EtherType: ethernet.TypeTSN, Payload: make([]byte, 100),
			FlowID: 11, Seq: 3, Class: ethernet.ClassTS, SentAt: 42},
		{Dst: ethernet.HostMAC(3), Src: ethernet.HostMAC(4), VID: 9, PCP: 2,
			EtherType: ethernet.TypeVLAN, Payload: make([]byte, 200)},
	}
	stamps := []sim.Time{3 * sim.Second, 3*sim.Second + 999*sim.Nanosecond}
	for i, f := range frames {
		f.Payload[0] = byte(i + 1)
		if err := w.WriteFrame(stamps[i], f); err != nil {
			t.Fatal(err)
		}
	}

	r, err := newPcapReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range frames {
		at, got, err := r.next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if at != stamps[i] {
			t.Errorf("record %d: at = %v, want %v", i, at, stamps[i])
		}
		if got.Dst != want.Dst || got.Src != want.Src || got.VID != want.VID ||
			got.PCP != want.PCP || got.EtherType != want.EtherType ||
			got.FlowID != want.FlowID || got.Seq != want.Seq ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, _, err := r.next(); err != io.EOF {
		t.Fatalf("after last record: err = %v, want io.EOF", err)
	}
	if r.count != 2 {
		t.Fatalf("count = %d, want 2", r.count)
	}
}

func TestPcapReaderRejectsBadMagic(t *testing.T) {
	if _, err := newPcapReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero magic accepted")
	}
	if _, err := newPcapReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestPcapReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf)
	f := &ethernet.Frame{EtherType: ethernet.TypeTSN, Payload: make([]byte, 50)}
	if err := w.WriteFrame(0, f); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	r, err := newPcapReader(bytes.NewReader(b[:len(b)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record: err = %v, want decode error", err)
	}
}
