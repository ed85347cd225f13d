package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The write-ahead log is a sequence of length-prefixed, CRC-checksummed
// records after an 8-byte magic header:
//
//	file   := magic record*
//	magic  := "MVOWAL01"
//	record := payloadLen:u32le  crc32(payload):u32le  payload
//
// The payload is the JSON walRecord below. Records carry strictly
// increasing sequence numbers; a record is torn (incomplete header or
// payload, or CRC mismatch) only as the result of a crash mid-append,
// so scanning stops at the first invalid record and recovery truncates
// the file back to the last good byte. A frame whose CRC matches but
// whose payload does not parse cannot be torn — the checksum covers
// the whole payload — so it is refused as corruption instead of
// truncated (see scanWAL). One function, readFrame, reads and checks a
// frame for recovery, the leader's stream and the follower alike.

const (
	walMagic = "MVOWAL01"

	// maxWALRecord bounds a single record so a corrupt length prefix
	// cannot drive a multi-gigabyte allocation during recovery.
	maxWALRecord = 64 << 20

	recordHeaderSize = 8 // payloadLen + crc32
)

// Record types.
const (
	// RecordEvolve is an evolution script: the raw POST /evolve payload.
	RecordEvolve = "evolve"
	// RecordFacts is a fact-batch append: a JSON array of FactRecord.
	RecordFacts = "facts"
	// RecordRetract is a fact-batch retraction: a JSON array of
	// RetractRecord addressing the tuples to remove. Introducing it as a
	// new record type (rather than a flag on RecordFacts) versions the
	// WAL implicitly: a binary that predates retraction refuses the
	// record cleanly when decoding it ("unknown record type") instead
	// of misapplying it as an append.
	RecordRetract = "retract"
	// RecordHeartbeat is a liveness frame on the replication stream,
	// carrying the leader's last committed sequence. It is never
	// written to a WAL file and never applied by a follower.
	RecordHeartbeat = "hb"
)

// ErrRecordTooLarge reports an append whose payload exceeds
// maxWALRecord. Writing such a record would ack a mutation that
// scanWAL must then reject on recovery — truncating it and everything
// appended after it — so the append path refuses it up front.
var ErrRecordTooLarge = errors.New("store: record exceeds the WAL record size bound")

// walRecord is the JSON payload of one WAL record.
type walRecord struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// FactRecord is the wire form of one appended fact, shared by the
// POST /facts endpoint and the WAL: member-version coordinates in
// schema dimension order, an instant ("MM/YYYY" or "YYYY"), and one
// value per measure.
type FactRecord struct {
	Coords []string  `json:"coords"`
	Time   string    `json:"time"`
	Values []float64 `json:"values"`
}

// ParseFactBatch strictly decodes a JSON fact batch (the POST /facts
// body and the WAL fact-record payload).
func ParseFactBatch(data []byte) ([]FactRecord, error) {
	var batch []FactRecord
	if err := json.Unmarshal(data, &batch); err != nil {
		return nil, fmt.Errorf("store: fact batch: %w", err)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("store: fact batch is empty")
	}
	return batch, nil
}

// RetractRecord is the wire form of one retracted fact, shared by the
// POST /facts/retract endpoint and the WAL: the address of the tuple
// only. The old values are recovered from the fact table when the
// record is applied — the log stays minimal and cannot disagree with
// the store about what was removed.
type RetractRecord struct {
	Coords []string `json:"coords"`
	Time   string   `json:"time"`
}

// ParseRetractBatch strictly decodes a JSON retract batch (the
// POST /facts/retract body and the WAL retract-record payload).
func ParseRetractBatch(data []byte) ([]RetractRecord, error) {
	var batch []RetractRecord
	if err := json.Unmarshal(data, &batch); err != nil {
		return nil, fmt.Errorf("store: retract batch: %w", err)
	}
	if len(batch) == 0 {
		return nil, fmt.Errorf("store: retract batch is empty")
	}
	return batch, nil
}

// encodeRecord renders the framed bytes of one record.
func encodeRecord(rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encoding wal record %d: %w", rec.Seq, err)
	}
	buf := make([]byte, recordHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[recordHeaderSize:], payload)
	return buf, nil
}

// walScan is the result of scanning one WAL file.
type walScan struct {
	// records are the valid records in file order.
	records []walRecord
	// goodSize is the byte offset just past the last valid record; a
	// torn tail is everything from goodSize to the file size.
	goodSize int64
	// tornBytes counts trailing bytes dropped by the scan (0 when the
	// file ends cleanly on a record boundary).
	tornBytes int64
}

// errUnparseable marks a frame whose CRC checks out but whose payload
// is not a WAL record. A crash-torn write cannot produce it: the CRC
// covers the whole payload, so a partial or interleaved write fails the
// checksum instead.
var errUnparseable = errors.New("CRC-valid frame with unparseable payload")

// readFrame reads one frame off r — the WAL file in recovery, the
// committed part of it on the leader's stream, the stream itself on a
// follower — checking the length bound, the CRC and the JSON of the
// payload. It returns the frame's bytes, header included, with its
// record. io.EOF means r ended cleanly on a frame boundary; an error
// wrapping errUnparseable is a frame that checks out but does not
// parse; any other error is a frame cut short or failing its checksum.
func readFrame(r io.Reader) ([]byte, walRecord, error) {
	var rec walRecord
	var header [recordHeaderSize]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, rec, err
	}
	payloadLen := binary.LittleEndian.Uint32(header[0:4])
	if payloadLen == 0 || payloadLen > maxWALRecord {
		return nil, rec, fmt.Errorf("corrupt frame length %d", payloadLen)
	}
	frame := make([]byte, recordHeaderSize+int(payloadLen))
	copy(frame, header[:])
	if _, err := io.ReadFull(r, frame[recordHeaderSize:]); err != nil {
		return nil, rec, fmt.Errorf("torn frame: %w", err)
	}
	if crc32.ChecksumIEEE(frame[recordHeaderSize:]) != binary.LittleEndian.Uint32(header[4:8]) {
		return nil, rec, errors.New("frame CRC mismatch")
	}
	if err := json.Unmarshal(frame[recordHeaderSize:], &rec); err != nil {
		return nil, rec, fmt.Errorf("%w: %w", errUnparseable, err)
	}
	return frame, rec, nil
}

// readMagic consumes the MVOWAL01 header that starts a WAL file and a
// replication stream.
func readMagic(r io.Reader) error {
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("not a WAL file: %w", err)
	}
	if string(magic) != walMagic {
		return fmt.Errorf("not a WAL file (bad magic %q)", magic)
	}
	return nil
}

// scanWAL reads every valid record of a WAL file, stopping at the
// first torn or corrupt one. A missing or wrong magic header is an
// error (the file is not a WAL); anything after the last valid record
// is reported as a torn tail for the caller to truncate.
func scanWAL(path string) (*walScan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if err := readMagic(f); err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	scan := &walScan{goodSize: int64(len(walMagic))}
	for {
		frame, rec, err := readFrame(f)
		if errors.Is(err, errUnparseable) {
			// Mid-history corruption or version skew: treating it as a torn
			// tail would silently truncate away every later valid record —
			// refuse recovery like a sequence jump.
			return nil, fmt.Errorf("store: %s: record %d (offset %d): %w",
				path, len(scan.records)+1, scan.goodSize, err)
		}
		if err != nil {
			break // clean EOF, or a torn tail to truncate
		}
		if n := len(scan.records); n > 0 && rec.Seq != scan.records[n-1].Seq+1 {
			return nil, fmt.Errorf("store: %s: wal sequence jumped %d → %d",
				path, scan.records[n-1].Seq, rec.Seq)
		}
		scan.records = append(scan.records, rec)
		scan.goodSize += int64(len(frame))
	}
	scan.tornBytes = info.Size() - scan.goodSize
	return scan, nil
}

// createWAL creates a fresh WAL file containing only the magic header
// and syncs it. It fails if the file already exists.
func createWAL(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
