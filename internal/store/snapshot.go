package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/evolution"
	"mvolap/internal/schemaio"
)

// A snapshot is one binary container freezing the whole warehouse at a
// WAL sequence number, written as a stream of sections so the writer
// never holds more than one of them (docs/persistence.md has the layout
// table):
//
//	file    := "MVOSNP01" section* end
//	section := kind:u8 len:u64le payload crc32ieee(kind‖len‖payload):u32le
//
// in the order meta, structure, facts, end. A snapshot freezes the
// warehouse, not its caches: every temporal mode rebuilds from the
// facts and the structure on first use. A file is readable only if it
// frames exactly — the end marker, holding the count of sections
// before it, is its last bytes — and every section passes its CRC, so
// a short or torn file is unreadable as a whole.

const (
	snapshotMagic = "MVOSNP01" // versions the container
	snapshotExt   = ".snap"

	sectionHeaderSize = 1 + 8 // kind + payload length; the CRC trails the payload
	sectionCRCSize    = 4
)

// Section kinds, in file order. Kind 4 is no kind: earlier builds
// wrote cached modes under it, and a reader refuses it like any other
// misplaced kind.
const (
	secMeta      byte = 1 // JSON snapshotMeta
	secStructure byte = 2 // the schemaio document without facts
	secFacts     byte = 3 // core's binary facts codec (core.EncodeFacts)
	secEnd       byte = 5 // uint32 LE count of the sections before it
)

// snapshotMeta is the meta section: what the schema document does not
// carry (schemaio has no evolution log, but /schema serves it).
type snapshotMeta struct {
	WALSeq       uint64               `json:"walSeq"`
	EvolutionLog []evolution.LogEntry `json:"evolutionLog,omitempty"`
}

// snapshotSections is a container taken apart, payloads still encoded.
type snapshotSections struct {
	meta             snapshotMeta
	structure, facts []byte
}

func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%016d%s", seq, snapshotExt) }
func walName(seq uint64) string      { return fmt.Sprintf("wal-%016d.log", seq) }

// seqOfName extracts the sequence number from a snapshot or WAL file
// name produced by snapshotName/walName.
func seqOfName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	digits := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if _, err := fmt.Sscanf(digits, "%d", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// encodeSnapshot streams the snapshot container for a schema and its
// evolution log through bw and flushes it. The bytes are deterministic
// for a given schema state: schemaio emits dimensions, versions,
// relationships and mappings in insertion order, core emits the live
// facts in position order, and nothing carries a timestamp.
func encodeSnapshot(bw *bufio.Writer, sch *core.Schema, log []evolution.LogEntry, walSeq uint64) error {
	meta, err := json.Marshal(snapshotMeta{WALSeq: walSeq, EvolutionLog: log})
	if err != nil {
		return fmt.Errorf("store: snapshot meta: %w", err)
	}
	var structure bytes.Buffer
	if err := schemaio.WriteStructure(&structure, sch); err != nil {
		return fmt.Errorf("store: snapshot schema: %w", err)
	}
	// A bufio.Writer's first error sticks and Flush returns it, so the
	// writes below go unchecked; a payload larger than the buffer passes
	// straight through to the file.
	count := uint32(0)
	section := func(kind byte, payload []byte) {
		var head [sectionHeaderSize]byte
		head[0] = kind
		binary.LittleEndian.PutUint64(head[1:], uint64(len(payload)))
		sum := crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, payload)
		bw.Write(head[:])
		bw.Write(payload)
		bw.Write(binary.LittleEndian.AppendUint32(nil, sum))
		count++
	}
	bw.WriteString(snapshotMagic)
	section(secMeta, meta)
	section(secStructure, structure.Bytes())
	section(secFacts, core.EncodeFacts(sch))
	section(secEnd, binary.LittleEndian.AppendUint32(nil, count))
	return bw.Flush()
}

// writeSnapshot durably writes the snapshot for walSeq into dir — temp
// file → fsync → rename → fsync(dir) — and returns its size. No error
// path leaves the temp file behind.
func writeSnapshot(dir string, sch *core.Schema, log []evolution.LogEntry, walSeq uint64) (size int64, err error) {
	final := filepath.Join(dir, snapshotName(walSeq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	start := time.Now()
	if err := encodeSnapshot(bufio.NewWriterSize(f, 256<<10), sch, log, walSeq); err != nil {
		return 0, err
	}
	metSnapshotStageSeconds.With("write").Observe(time.Since(start).Seconds())
	start = time.Now()
	if err := f.Sync(); err != nil {
		return 0, err
	}
	if size, err = f.Seek(0, io.SeekCurrent); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return 0, err
	}
	if err := syncDir(dir); err != nil {
		return 0, err
	}
	metSnapshotStageSeconds.With("sync").Observe(time.Since(start).Seconds())
	return size, nil
}

// openSnapshot takes a container apart, checking everything that makes
// it readable — magic, framing, section order, end marker, the CRC of
// every section — and decoding only the meta section.
func openSnapshot(data []byte) (*snapshotSections, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return nil, fmt.Errorf("not a snapshot container (bad magic)")
	}
	var c snapshotSections
	rest := data[len(snapshotMagic):]
	for i := 0; ; i++ {
		if len(rest) < sectionHeaderSize+sectionCRCSize {
			return nil, fmt.Errorf("truncated: no end marker after %d sections", i)
		}
		kind, n := rest[0], binary.LittleEndian.Uint64(rest[1:])
		if n > uint64(len(rest)-sectionHeaderSize-sectionCRCSize) {
			return nil, fmt.Errorf("truncated: section %d claims %d bytes, %d remain", i, n, len(rest))
		}
		end := sectionHeaderSize + int(n)
		sec, sum := rest[:end], binary.LittleEndian.Uint32(rest[end:])
		payload := sec[sectionHeaderSize:]
		rest = rest[end+sectionCRCSize:]
		intact := crc32.ChecksumIEEE(sec) == sum
		want := secEnd
		if i < 3 {
			want = secMeta + byte(i)
		}
		switch {
		case kind == secEnd && i == 3:
			if !intact || len(payload) != 4 || binary.LittleEndian.Uint32(payload) != uint32(i) || len(rest) != 0 {
				return nil, fmt.Errorf("bad end marker after %d sections (%d bytes follow it)", i, len(rest))
			}
			return &c, nil
		case kind != want:
			return nil, fmt.Errorf("section %d has kind %d, want %d", i, kind, want)
		case !intact:
			return nil, fmt.Errorf("section %d (kind %d) failed its CRC", i, kind)
		case kind == secMeta:
			if err := json.Unmarshal(payload, &c.meta); err != nil {
				return nil, fmt.Errorf("meta: %w", err)
			}
		case kind == secStructure:
			c.structure = payload
		default:
			c.facts = payload
		}
	}
}

// loadSnapshot rebuilds the generation a snapshot container froze: the
// schema, every temporal mode cold, an applier carrying the evolution
// log, and the WAL sequence covered. Crash recovery, a follower's
// bootstrap and the command-line tools all start from it; name labels
// errors (a file path, or the URL a follower fetched from).
func loadSnapshot(data []byte, name string) (*core.Schema, *evolution.Applier, uint64, error) {
	c, err := openSnapshot(data)
	var sch *core.Schema
	if err == nil {
		sch, err = schemaio.Read(bytes.NewReader(c.structure))
	}
	if err == nil {
		err = core.DecodeFacts(c.facts, sch)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: snapshot %s: %w", name, err)
	}
	return sch, evolution.NewApplierWithLog(sch, c.meta.EvolutionLog), c.meta.WALSeq, nil
}

// LoadSchema reads a warehouse file for the command-line tools: a
// snapshot container (told by its magic) or a schemaio JSON document.
func LoadSchema(path string) (*core.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return schemaio.Read(bytes.NewReader(data))
	}
	sch, _, _, err := loadSnapshot(data, path)
	return sch, err
}

// listBySeq returns the files in dir matching prefix/suffix, sorted by
// embedded sequence number ascending, paired with those numbers.
func listBySeq(dir, prefix, suffix string) (names []string, seqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type item struct {
		name string
		seq  uint64
	}
	var items []item
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := seqOfName(e.Name(), prefix, suffix); ok {
			items = append(items, item{e.Name(), seq})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].seq < items[j].seq })
	for _, it := range items {
		names = append(names, it.name)
		seqs = append(seqs, it.seq)
	}
	return names, seqs, nil
}

// syncDir fsyncs a directory so renames and unlinks within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
