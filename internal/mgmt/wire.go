package mgmt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Management-plane wire format, version 2. Both management hops — console
// ↔ console server and controller ↔ broker — exchange frames:
//
//	offset  size  field
//	0       3     magic "WCM"
//	3       1     version (2)
//	4       4     header length h, big-endian
//	8       8     payload length p, big-endian
//	16      h     header: one JSON object, the control envelope
//	16+h    p     payload: the file's raw bytes
//
// The envelope stays JSON because it carries the structured replies
// (status, stats, traces, journal, explain) and must stay readable in a
// packet dump. File bytes never enter it: every Data field is json:"-"
// and rides as the payload, written from and read into one slice. A zero
// payload length cannot tell a nil Data from an empty one, so each
// envelope that can carry Data has a "payload" flag saying it is present
// (a zero-length file is still a file; a store-file without Data asks
// for Size synthetic bytes).
//
// Version 1 was newline-delimited JSON with Data encoded into the line. A peer whose
// first four bytes are not the v2 magic is refused on the spot with
// errWireMismatch — v1 and v2 never mix on one connection, in either
// direction.

const (
	wireVersion    = 2
	framePrefixLen = 16

	// maxFrameHeader bounds the JSON envelope. The envelopes that grow
	// with the site are console replies (tree renders one line of ≈ 100
	// bytes per object; audit, journal and traces are capped far lower),
	// so 16 MiB holds the tree of some 160 000 objects, eighteen times
	// the paper's site.
	maxFrameHeader = 16 << 20

	// maxFramePayload bounds one file, and so the most one management
	// connection may make its peer buffer: the console server stages an
	// inserted or updated file whole in a pooled buffer until the brokers
	// have it, a broker receives a file whole into the slice its store then
	// keeps, and a pulling broker holds the file it fetched from its peer
	// the same way. The controller stages nothing on a copy — it sends the
	// target an envelope. The content model's largest object is 1 MiB.
	maxFramePayload = 256 << 20
)

var wireMagic = [4]byte{'W', 'C', 'M', wireVersion}

// errWireMismatch reports a peer that does not speak wire v2.
var errWireMismatch = errors.New("mgmt: wire protocol mismatch")

// mismatchError names what the peer sent in place of the v2 magic.
func mismatchError(got []byte) error {
	switch {
	case got[0] == '{':
		return fmt.Errorf("%w: peer sent %q, the JSON-line protocol (wire v1); this end speaks framed wire v%d",
			errWireMismatch, got, wireVersion)
	case string(got[:3]) == string(wireMagic[:3]):
		return fmt.Errorf("%w: peer speaks wire v%d; this end speaks v%d",
			errWireMismatch, got[3], wireVersion)
	default:
		return fmt.Errorf("%w: peer sent %q, not a wire v%d frame", errWireMismatch, got, wireVersion)
	}
}

// writeFrame sends header as the JSON envelope and payload as the raw
// bytes behind it, without copying payload: on a TCP connection prefix,
// envelope and payload leave in one vectored write.
func writeFrame(w io.Writer, header any, payload []byte) error {
	hdr, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("mgmt: encoding frame header: %w", err)
	}
	if len(hdr) > maxFrameHeader {
		return fmt.Errorf("mgmt: frame header of %d bytes exceeds the %d-byte bound", len(hdr), maxFrameHeader)
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("mgmt: frame payload of %d bytes exceeds the %d-byte bound", len(payload), maxFramePayload)
	}
	prefix := make([]byte, framePrefixLen)
	copy(prefix, wireMagic[:])
	binary.BigEndian.PutUint32(prefix[4:], uint32(len(hdr)))
	binary.BigEndian.PutUint64(prefix[8:], uint64(len(payload)))
	bufs := net.Buffers{prefix, hdr, payload}
	if _, err := bufs.WriteTo(w); err != nil {
		return fmt.Errorf("mgmt: writing frame: %w", err)
	}
	return nil
}

// readFrame reads one frame into a payload slice of its own, which the
// caller may keep or give away (a broker gives it to its store).
func readFrame(r io.Reader, header any) ([]byte, error) {
	return readFrameInto(r, header, func(n int) []byte { return make([]byte, n) })
}

// readFrameInto reads one frame, decodes its envelope into header and
// returns the payload in a slice of exactly its length: empty, not nil,
// when the frame has none, else alloc(length) filled. Both lengths are
// checked against their bounds before anything is allocated. A clean
// close between frames returns io.EOF bare; a close inside a frame is
// io.ErrUnexpectedEOF.
func readFrameInto(r io.Reader, header any, alloc func(n int) []byte) ([]byte, error) {
	prefix := make([]byte, framePrefixLen)
	if _, err := io.ReadFull(r, prefix[:len(wireMagic)]); err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("mgmt: reading frame magic: %w", err)
	}
	if [4]byte(prefix) != wireMagic {
		return nil, mismatchError(prefix[:len(wireMagic)])
	}
	if err := readFull(r, prefix[len(wireMagic):], "lengths"); err != nil {
		return nil, err
	}
	hlen := binary.BigEndian.Uint32(prefix[4:])
	plen := binary.BigEndian.Uint64(prefix[8:])
	if hlen > maxFrameHeader {
		return nil, fmt.Errorf("mgmt: frame announces a %d-byte header, over the %d-byte bound", hlen, maxFrameHeader)
	}
	if plen > maxFramePayload {
		return nil, fmt.Errorf("mgmt: frame announces a %d-byte payload, over the %d-byte bound", plen, maxFramePayload)
	}
	hdr := make([]byte, hlen)
	if err := readFull(r, hdr, "header"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(hdr, header); err != nil {
		return nil, fmt.Errorf("mgmt: decoding frame header: %w", err)
	}
	if plen == 0 {
		return []byte{}, nil
	}
	payload := alloc(int(plen))
	if err := readFull(r, payload, "payload"); err != nil {
		return nil, err
	}
	return payload, nil
}

// readFull fills buf from the inside of a frame, where running out of
// bytes is always a truncation.
func readFull(r io.Reader, buf []byte, part string) error {
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("mgmt: reading frame %s: %w", part, err)
	}
	return nil
}

// refuseMismatch tells a peer that opened with another wire version why
// it is being disconnected, as the one thing a v1 peer can decode: a
// JSON line whose ok and error fields both v1 reply types share.
func refuseMismatch(conn net.Conn, err error) {
	if !errors.Is(err, errWireMismatch) {
		return
	}
	line, merr := json.Marshal(struct {
		OK    bool   `json:"ok"`
		Error string `json:"error"`
	}{Error: err.Error()})
	if merr != nil {
		return
	}
	// Best effort: the caller closes the connection next, whatever
	// happens to this line.
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = conn.Write(append(line, '\n'))
}
