package jobs

// Frame codec shared by the durable store (diskstore.go) and the queue
// write-ahead log (walqueue.go). Both are append-only files of
// length-prefixed, checksummed records, and both recover by scanning
// frames from the start and truncating at the first frame that does
// not check out — the "torn tail" a crash mid-write leaves behind.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// frameHeader is [4B LE payload length][1B op][4B LE CRC32(op||payload)].
const frameHeaderLen = 4 + 1 + 4

// maxFramePayload bounds a single frame. Results and wire-encoded work
// units are a few KB; anything past this is corruption, not data, and
// treating it as data would make recovery allocate attacker-sized
// buffers from a flipped length byte.
const maxFramePayload = 16 << 20

// errTornFrame marks the first unreadable frame during recovery: a
// partial or corrupt tail to truncate, not an error to surface.
var errTornFrame = errors.New("jobs: torn frame")

// appendFrame appends one encoded frame to dst and returns the
// extended buffer. A group of frames encoded back to back goes to disk
// in one write, and a crash mid-write leaves an intact prefix of them
// followed by one torn frame, which recovery truncates.
func appendFrame(dst []byte, op byte, payload []byte) ([]byte, error) {
	if len(payload) > maxFramePayload {
		return dst, fmt.Errorf("jobs: frame payload %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = op
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:5])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(hdr[5:9], crc.Sum32())
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// readFrame reads one frame from r. io.EOF marks a clean end of file;
// errTornFrame marks a partial or corrupt frame (truncate here).
func readFrame(r *bufio.Reader) (op byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, errTornFrame
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFramePayload {
		return 0, nil, errTornFrame
	}
	op = hdr[4]
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, errTornFrame
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:5])
	crc.Write(payload)
	if crc.Sum32() != binary.LittleEndian.Uint32(hdr[5:9]) {
		return 0, nil, errTornFrame
	}
	return op, payload, nil
}

// scanFrames replays every intact frame of f through fn and returns
// the byte offset of the first torn frame (== file size when the file
// ends cleanly). A non-nil error from fn aborts the scan.
func scanFrames(f *os.File, fn func(op byte, payload []byte) error) (valid int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(f)
	for {
		op, payload, err := readFrame(r)
		if err == io.EOF || err == errTornFrame {
			return valid, nil
		}
		if err != nil {
			return valid, err
		}
		if err := fn(op, payload); err != nil {
			return valid, err
		}
		valid += int64(frameHeaderLen) + int64(len(payload))
	}
}

// truncateTorn chops a recovered file back to its last intact frame
// and positions it for appends.
func truncateTorn(f *os.File, valid int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			return err
		}
	}
	_, err = f.Seek(valid, io.SeekStart)
	return err
}
