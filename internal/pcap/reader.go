package pcap

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Reader iterates the frames of a capture written by Writer — the
// offline analysis path (replaying a testbed capture through the
// analyzer without re-running the simulation). Not safe for concurrent
// use.
type Reader struct {
	r     io.Reader
	buf   []byte // recycled record buffer; frames alias it (see Next)
	count uint64
}

// NewReader validates the capture's file header and positions the
// reader at the first record. Only the nanosecond-resolution format
// Writer emits is accepted.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(hdr[0:]); magic != magicNanos {
		return nil, fmt.Errorf("pcap: unsupported magic %#x (want nanosecond pcap %#x)", magic, magicNanos)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linkTypeEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", lt)
	}
	return &Reader{r: r}, nil
}

// Next decodes the next record and returns its capture instant and
// frame. It returns io.EOF cleanly after the last record.
//
// Aliasing rule: the frame is decoded with ethernet.UnmarshalNoCopy
// onto the reader's recycled record buffer, so the frame (and its
// Payload) is valid only until the following Next call. A caller that
// retains frames must copy them, payload included; the intended consumers (the
// analyzer's statistics pass, filters, format dumpers) inspect and
// discard, which is what makes the read path allocation-free per
// record.
func (pr *Reader) Next() (sim.Time, *ethernet.Frame, error) {
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
	if caplen > snapLen {
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
	at := sim.Time(sec)*sim.Second + sim.Time(nsec)
	return at, f, nil
}

// Count returns the number of records decoded so far.
func (pr *Reader) Count() uint64 { return pr.count }
