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
// WAL sequence number, written once, front to back, as a stream of
// sections: a section's length trails its payload, so the writer
// streams each payload straight into the file and never counts or
// holds one whole (docs/persistence.md has the layout table):
//
//	file    := "MVOSNP02" section* end
//	section := kind:u8 payload len:u64le crc32ieee(kind‖payload‖len):u32le
//
// in the order meta, structure, facts, end. A snapshot freezes the
// warehouse, not its caches: every temporal mode rebuilds from the
// facts and the structure on first use. A reader finds the sections
// from the end marker back to the magic. A file is readable only if it
// frames exactly — the end marker, holding the count of sections
// before it, is its last bytes, and the first section starts right
// after the magic — and every section passes its CRC, so a short or
// torn file is unreadable as a whole.

const (
	snapshotMagic = "MVOSNP02" // versions the container
	snapshotExt   = ".snap"

	sectionTrailerSize = 8 + 4 // payload length and CRC, after the payload
)

// Section kinds, in file order. Kind 4 is no kind: earlier builds
// wrote cached modes under it, and a reader refuses it like any other
// misplaced kind.
const (
	secMeta      byte = 1 // JSON snapshotMeta
	secStructure byte = 2 // the schemaio document without facts
	secFacts     byte = 3 // core's binary facts codec (core.WriteFacts)
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
	// A bufio.Writer's first error sticks and Flush returns it, so the
	// framing's writes go unchecked; a payload larger than the buffer
	// passes straight through to the file. A section's payload is
	// written once, by write, through the section's checksum and a
	// counter whose count then closes the section.
	count := uint32(0)
	section := func(kind byte, write func(io.Writer) error) error {
		sum := crc32.NewIEEE()
		out := io.MultiWriter(bw, sum)
		out.Write([]byte{kind})
		payload := counter{w: out}
		err := write(&payload)
		out.Write(binary.LittleEndian.AppendUint64(nil, uint64(payload.n)))
		bw.Write(binary.LittleEndian.AppendUint32(nil, sum.Sum32()))
		count++
		return err
	}
	bytesOf := func(p []byte) func(io.Writer) error {
		return func(w io.Writer) error { _, err := w.Write(p); return err }
	}
	bw.WriteString(snapshotMagic)
	section(secMeta, bytesOf(meta))
	if err := section(secStructure, func(w io.Writer) error { return schemaio.WriteStructure(w, sch) }); err != nil {
		return fmt.Errorf("store: snapshot schema: %w", err)
	}
	if err := section(secFacts, func(w io.Writer) error { return core.WriteFacts(w, sch) }); err != nil {
		return fmt.Errorf("store: snapshot facts: %w", err)
	}
	section(secEnd, bytesOf(binary.LittleEndian.AppendUint32(nil, count)))
	return bw.Flush()
}

// counter counts the bytes written through it to w.
type counter struct {
	w io.Writer
	n int
}

func (c *counter) Write(p []byte) (int, error) {
	c.n += len(p)
	return c.w.Write(p)
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
	// One facts-codec chunk (32 KB): the structure writer's 4 KB chunks
	// and the framing fill it, and a whole facts chunk passes straight
	// through to the file.
	if err := encodeSnapshot(bufio.NewWriterSize(f, 32<<10), sch, log, walSeq); err != nil {
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
// every section — and decoding only the meta section. It reads the
// sections from the last back: each one's trailer says where the
// section starts, and so where the one before it ends.
func openSnapshot(data []byte) (*snapshotSections, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		if bytes.HasPrefix(data, []byte(snapshotMagic[:len(snapshotMagic)-2])) {
			return nil, fmt.Errorf("snapshot container in an earlier format (magic %q); this build reads only %s", data[:min(len(data), len(snapshotMagic))], snapshotMagic)
		}
		return nil, fmt.Errorf("not a snapshot container (bad magic)")
	}
	var payloads [4][]byte
	first, end := len(snapshotMagic), len(data)
	for i := len(payloads) - 1; i >= 0; i-- {
		room := end - first - 1 - sectionTrailerSize
		if room < 0 {
			return nil, fmt.Errorf("truncated: no room for section %d before %d bytes of sections", i, len(data)-end)
		}
		n := binary.LittleEndian.Uint64(data[end-sectionTrailerSize:])
		if n > uint64(room) {
			return nil, fmt.Errorf("truncated: section %d claims %d bytes, room for %d", i, n, room)
		}
		start := end - sectionTrailerSize - int(n) - 1
		kind, want := data[start], secEnd
		if i < 3 {
			want = secMeta + byte(i)
		}
		if kind != want {
			return nil, fmt.Errorf("section %d has kind %d, want %d", i, kind, want)
		}
		if crc32.ChecksumIEEE(data[start:end-4]) != binary.LittleEndian.Uint32(data[end-4:]) {
			return nil, fmt.Errorf("section %d (kind %d) failed its CRC", i, kind)
		}
		payloads[i], end = data[start+1:end-sectionTrailerSize], start
	}
	if end != first {
		return nil, fmt.Errorf("%d bytes between the magic and the first section", end-first)
	}
	if p := payloads[3]; len(p) != 4 || binary.LittleEndian.Uint32(p) != 3 {
		return nil, fmt.Errorf("bad end marker after 3 sections (% x)", p)
	}
	c := snapshotSections{structure: payloads[1], facts: payloads[2]}
	if err := json.Unmarshal(payloads[0], &c.meta); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	return &c, nil
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
// snapshot container (told by its magic, whose refusal names a
// container of an earlier format) or a schemaio JSON document.
func LoadSchema(path string) (*core.Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic[:len(snapshotMagic)-2])) {
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
