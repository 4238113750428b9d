package mgmt

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"webcluster/internal/httpx"
)

// Management-plane wire format, version 2. All three management hops —
// console ↔ console server, controller ↔ broker, and primary → backup
// front end (replication.go) — exchange frames:
//
//	offset  size  field
//	0       3     magic "WCM"
//	3       1     version (2)
//	4       4     header length h, big-endian
//	8       8     payload length p, big-endian
//	16      h     header: one JSON object, the control envelope
//	16+h    p     payload: the file's raw bytes, or a snapshot's URL table
//
// The envelope stays JSON because it carries the structured replies
// (status, stats, traces, journal, explain) and must stay readable in a
// packet dump. The bytes are encoding/json's, but the four envelopes a
// content operation sends (consoleEnvelope, ConsoleResponse, request,
// response) are written and read without reflection (envelope.go):
// appended field by field, and scanned as flat objects. Any envelope
// carrying a nested report or a string encoding/json would escape, and
// any input the scanner does not take (an escape, a null, an unknown
// key, ...), goes to encoding/json instead; FuzzEnvelopeCodec holds the
// two to the same bytes and values.
//
// Every management connection is a raw socket (httpx.TCPConn, dialled by
// dialRaw or accepted by lifecycle), and a framer stages a frame's prefix
// and envelope in the connection's own buffer, so the frame leaves as one
// raw writev(2) with the payload and is read back through the
// connection's bufio.Reader without a make per frame. File bytes never
// enter the envelope: every Data field is json:"-" and rides as the
// payload, written from and read into one slice. A zero
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

// framer is one connection's frame buffers: the prefix and envelope of
// the frame being written, staged together so the frame leaves as one
// vectored write with the payload, and the prefix and envelope of the
// frame being read. They are kept between frames, so a frame costs no
// make, unless a frame grew them past framerKeep: a tree reply of
// megabytes is not pinned for the life of the session.
type framer struct {
	out, in []byte
	prefix  [framePrefixLen]byte
	// fs lists a hot envelope's fields while it is encoded or decoded.
	fs [16]field
}

// framerKeep bounds the buffers a framer keeps between frames.
const framerKeep = 64 << 10

// write sends header as the envelope and payload as the raw bytes behind
// it, without copying payload: on a raw socket prefix, envelope and
// payload leave in one writev(2).
func (f *framer) write(w io.Writer, header any, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("mgmt: frame payload of %d bytes exceeds the %d-byte bound", len(payload), maxFramePayload)
	}
	out := append(f.out[:0], wireMagic[:]...)
	out = append(out, make([]byte, framePrefixLen-len(wireMagic))...)
	out, err := f.appendEnvelope(out, header)
	f.out = keep(out)
	if err != nil {
		return fmt.Errorf("mgmt: encoding frame header: %w", err)
	}
	hlen := len(out) - framePrefixLen
	if hlen > maxFrameHeader {
		return fmt.Errorf("mgmt: frame header of %d bytes exceeds the %d-byte bound", hlen, maxFrameHeader)
	}
	binary.BigEndian.PutUint32(out[4:], uint32(hlen))
	binary.BigEndian.PutUint64(out[8:], uint64(len(payload)))
	if _, err := httpx.WriteVectored(w, out, payload); err != nil {
		return fmt.Errorf("mgmt: writing frame: %w", err)
	}
	return nil
}

// keep returns b emptied to be written again, or nil when it has grown
// past framerKeep.
func keep(b []byte) []byte {
	if cap(b) > framerKeep {
		return nil
	}
	return b[:0]
}

// appendEnvelope appends header as JSON: by the codec when it is a hot
// envelope the codec takes, by encoding/json otherwise.
func (f *framer) appendEnvelope(b []byte, header any) ([]byte, error) {
	if e, ok := header.(envelope); ok {
		out, ok := appendObject(b, e.fields(f.fs[:0]))
		f.fs = [len(f.fs)]field{} // they point into header
		if ok {
			return out, nil
		}
	}
	hdr, err := json.Marshal(header)
	return append(b, hdr...), err
}

// decodeEnvelope decodes hdr into header, a pointer: by the codec when it
// is a hot envelope and the codec takes the bytes, by encoding/json
// otherwise — over whatever the codec decoded before it gave up, which
// encoding/json decodes again from the same bytes. Nothing decoded keeps
// a reference to hdr.
func (f *framer) decodeEnvelope(hdr []byte, header any) error {
	if e, ok := header.(envelope); ok {
		ok = decodeFlat(hdr, e.fields(f.fs[:0]))
		f.fs = [len(f.fs)]field{}
		if ok {
			return nil
		}
	}
	return json.Unmarshal(hdr, header)
}

// read reads one frame, decodes its envelope into header and returns the
// payload in a slice of exactly its length: empty, not nil, when the
// frame has none, else alloc(length) filled (a new slice when alloc is
// nil). Both lengths are checked against their bounds before anything is
// allocated. A clean close between frames returns io.EOF bare; a close
// inside a frame is io.ErrUnexpectedEOF.
func (f *framer) read(r io.Reader, header any, alloc func(n int) []byte) ([]byte, error) {
	prefix := f.prefix[:]
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
	if cap(f.in) < int(hlen) {
		f.in = make([]byte, hlen)
	}
	hdr := f.in[:hlen]
	defer func() { f.in = keep(f.in) }()
	if err := readFull(r, hdr, "header"); err != nil {
		return nil, err
	}
	if err := f.decodeEnvelope(hdr, header); err != nil {
		return nil, fmt.Errorf("mgmt: decoding frame header: %w", err)
	}
	if plen == 0 {
		return []byte{}, nil
	}
	var payload []byte
	if alloc != nil {
		payload = alloc(int(plen))
	} else {
		payload = make([]byte, plen)
	}
	if err := readFull(r, payload, "payload"); err != nil {
		return nil, err
	}
	return payload, nil
}

// dialRaw dials addr and returns the connection as a raw socket
// (httpx.WrapTCP), as lifecycle's accept loop makes every accepted one:
// both ends of every management connection read and write without the
// runtime's syscall hand-off. A fault wrapper goes on top of what it
// returns.
func dialRaw(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	conn = httpx.WrapTCP(conn)
	return conn, nil
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
