// Package schemaio serializes temporal multidimensional schemas to and
// from JSON, so warehouses survive process restarts and the command
// line tools can exchange them. Mapping functions serialize as the
// prototype's linear k factors (§5.2) or the unknown mapping; arbitrary
// Go functions are not serializable and are rejected.
package schemaio

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"mvolap/internal/core"
	"mvolap/internal/temporal"
)

// fileSchema is the on-disk layout.
type fileSchema struct {
	Name       string          `json:"name"`
	Measures   []fileMeasure   `json:"measures"`
	Dimensions []fileDimension `json:"dimensions"`
	Mappings   []fileMapping   `json:"mappings,omitempty"`
	Facts      []fileFact      `json:"facts,omitempty"`
}

type fileMeasure struct {
	Name string `json:"name"`
	Agg  string `json:"agg"`
}

type fileDimension struct {
	ID            string         `json:"id"`
	Name          string         `json:"name"`
	Versions      []fileVersion  `json:"versions"`
	Relationships []fileRelation `json:"relationships,omitempty"`
}

type fileVersion struct {
	ID     string            `json:"id"`
	Member string            `json:"member,omitempty"`
	Name   string            `json:"name,omitempty"`
	Level  string            `json:"level,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	From   string            `json:"from"`
	To     string            `json:"to"`
}

type fileRelation struct {
	Child  string `json:"child"`
	Parent string `json:"parent"`
	From   string `json:"from"`
	To     string `json:"to"`
}

type fileMapping struct {
	From     string       `json:"from"`
	To       string       `json:"to"`
	Forward  []fileMapper `json:"forward"`
	Backward []fileMapper `json:"backward"`
}

type fileMapper struct {
	// K is the linear factor; null K with Unknown=true is the unknown
	// mapping.
	K       *float64 `json:"k,omitempty"`
	Unknown bool     `json:"unknown,omitempty"`
	CF      string   `json:"cf"`
}

type fileFact struct {
	Coords []string  `json:"coords"`
	Time   string    `json:"time"`
	Values []float64 `json:"values"`
}

// Write serializes the schema, facts included, as indented JSON.
func Write(w io.Writer, s *core.Schema) error {
	out, err := document(s)
	if err != nil {
		return err
	}
	s.Facts().All(func(f *core.Fact) bool {
		ff := fileFact{Time: f.Time.String(), Values: slices.Clone(f.Values)}
		for _, id := range f.Coords {
			ff.Coords = append(ff.Coords, string(id))
		}
		out.Facts = append(out.Facts, ff)
		return true
	})
	enc := json.NewEncoder(w)
	// The whole document is for human readers.
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// document builds the on-disk layout of everything but the facts.
func document(s *core.Schema) (fileSchema, error) {
	out, err := header(s)
	if err != nil {
		return out, err
	}
	for _, d := range s.Dimensions() {
		fd := fileDimension{ID: string(d.ID), Name: d.Name}
		for _, mv := range d.Versions() {
			fd.Versions = append(fd.Versions, fileVersion{
				ID: string(mv.ID), Member: mv.Member, Name: mv.Name, Level: mv.Level,
				Attrs: mv.Attrs, From: mv.Valid.Start.String(), To: mv.Valid.End.String(),
			})
		}
		for _, r := range d.Relationships() {
			fd.Relationships = append(fd.Relationships, fileRelation{
				Child: string(r.From), Parent: string(r.To),
				From: r.Valid.Start.String(), To: r.Valid.End.String(),
			})
		}
		out.Dimensions = append(out.Dimensions, fd)
	}
	return out, nil
}

// header builds the document's name, measures and mappings.
func header(s *core.Schema) (fileSchema, error) {
	out := fileSchema{Name: s.Name}
	for _, m := range s.Measures() {
		out.Measures = append(out.Measures, fileMeasure{Name: m.Name, Agg: m.Agg.String()})
	}
	for _, m := range s.Mappings() {
		fm := fileMapping{From: string(m.From), To: string(m.To)}
		var err error
		if fm.Forward, err = encodeMappers(m.Forward); err != nil {
			return out, fmt.Errorf("schemaio: mapping %s→%s: %w", m.From, m.To, err)
		}
		if fm.Backward, err = encodeMappers(m.Backward); err != nil {
			return out, fmt.Errorf("schemaio: mapping %s→%s: %w", m.From, m.To, err)
		}
		out.Mappings = append(out.Mappings, fm)
	}
	return out, nil
}

// WriteStructure serializes everything but the facts: the same
// document with no "facts" member, written compact (no indentation),
// which Read loads as a warehouse with an empty fact table. The store's
// snapshot container carries it beside the facts in their binary codec
// (core.WriteFacts); Read ignores whitespace, so a structure written
// indented loads alike.
//
// It streams: its bytes are exactly encoding/json's compact encoding of
// the document, trailing newline included, but the member versions and
// relationships — nearly all of it — are rendered one at a time into a
// chunk of structureChunk bytes that is written out whenever it fills,
// so neither the document nor its encoding is ever held whole.
func WriteStructure(w io.Writer, s *core.Schema) error {
	h, err := header(s)
	if err != nil {
		return err
	}
	st := structureWriter{w: w, buf: make([]byte, 0, structureChunk)}
	st.buf = append(st.buf, `{"name":`...)
	st.str(h.Name)
	st.buf = append(st.buf, `,"measures":`...)
	st.json(h.Measures)
	st.buf = append(st.buf, `,"dimensions":`...)
	dims := s.Dimensions()
	st.list(len(dims), func(i int) {
		d := dims[i]
		st.buf = append(st.buf, `{"id":`...)
		st.str(string(d.ID))
		st.buf = append(st.buf, `,"name":`...)
		st.str(d.Name)
		st.buf = append(st.buf, `,"versions":`...)
		versions, rels := d.Versions(), d.Relationships()
		st.list(len(versions), func(i int) {
			mv := versions[i]
			st.buf = append(st.buf, `{"id":`...)
			st.str(string(mv.ID))
			st.field(`,"member":`, mv.Member)
			st.field(`,"name":`, mv.Name)
			st.field(`,"level":`, mv.Level)
			if len(mv.Attrs) > 0 {
				st.buf = append(st.buf, `,"attrs":`...)
				st.json(mv.Attrs)
			}
			st.interval(mv.Valid)
			st.buf = append(st.buf, '}')
		})
		if len(rels) > 0 {
			st.buf = append(st.buf, `,"relationships":`...)
			st.list(len(rels), func(i int) {
				r := rels[i]
				st.buf = append(st.buf, `{"child":`...)
				st.str(string(r.From))
				st.buf = append(st.buf, `,"parent":`...)
				st.str(string(r.To))
				st.interval(r.Valid)
				st.buf = append(st.buf, '}')
			})
		}
		st.buf = append(st.buf, '}')
	})
	if len(h.Mappings) > 0 {
		st.buf = append(st.buf, `,"mappings":`...)
		st.json(h.Mappings)
	}
	st.buf = append(st.buf, "}\n"...)
	st.flush()
	return st.err
}

// structureChunk is what WriteStructure renders before writing it out.
const structureChunk = 4 << 10

// structureWriter renders WriteStructure's document into buf, writing
// it to w whenever a list element leaves it at least structureChunk
// long; the first error sticks.
type structureWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (st *structureWriter) flush() {
	if st.err == nil {
		_, st.err = st.w.Write(st.buf)
	}
	st.buf = st.buf[:0]
}

// list renders n elements as a JSON array, null when n is 0 (the
// encoding of a nil slice).
func (st *structureWriter) list(n int, elem func(i int)) {
	if n == 0 {
		st.buf = append(st.buf, "null"...)
		return
	}
	st.buf = append(st.buf, '[')
	for i := range n {
		if i > 0 {
			st.buf = append(st.buf, ',')
		}
		elem(i)
		if len(st.buf) >= structureChunk {
			st.flush()
		}
	}
	st.buf = append(st.buf, ']')
}

// field renders an omitempty string member.
func (st *structureWriter) field(key, v string) {
	if v != "" {
		st.buf = append(st.buf, key...)
		st.str(v)
	}
}

// interval renders a valid time's "from" and "to" members.
func (st *structureWriter) interval(iv temporal.Interval) {
	st.buf = append(st.buf, `,"from":"`...)
	st.buf = append(iv.Start.Append(st.buf), `","to":"`...)
	st.buf = append(iv.End.Append(st.buf), '"')
}

// str renders a string as encoding/json does: printable ASCII with
// nothing to escape is copied, anything else (quotes, backslashes, the
// HTML-escaped <, > and &, control bytes, non-ASCII) goes through
// json.Marshal.
func (st *structureWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			st.json(s)
			return
		}
	}
	st.buf = append(append(append(st.buf, '"'), s...), '"')
}

// json renders v through json.Marshal.
func (st *structureWriter) json(v any) {
	b, err := json.Marshal(v)
	if err != nil && st.err == nil {
		st.err = err
	}
	st.buf = append(st.buf, b...)
}

func encodeMappers(ms []core.MeasureMapping) ([]fileMapper, error) {
	out := make([]fileMapper, len(ms))
	for i, m := range ms {
		fm := fileMapper{CF: m.CF.String()}
		switch fn := m.Fn.(type) {
		case core.Linear:
			k := fn.K
			fm.K = &k
		case core.Unknown:
			fm.Unknown = true
		default:
			return nil, fmt.Errorf("mapper %T is not serializable (use Linear or Unknown)", m.Fn)
		}
		out[i] = fm
	}
	return out, nil
}

// Read deserializes a schema.
func Read(r io.Reader) (*core.Schema, error) {
	var in fileSchema
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("schemaio: %w", err)
	}
	measures := make([]core.Measure, len(in.Measures))
	for i, m := range in.Measures {
		agg, err := core.ParseAggKind(m.Agg)
		if err != nil {
			return nil, fmt.Errorf("schemaio: measure %q: %w", m.Name, err)
		}
		measures[i] = core.Measure{Name: m.Name, Agg: agg}
	}
	s := core.NewSchema(in.Name, measures...)
	for _, fd := range in.Dimensions {
		d := core.NewDimension(core.DimID(fd.ID), fd.Name)
		for _, fv := range fd.Versions {
			valid, err := parseInterval(fv.From, fv.To)
			if err != nil {
				return nil, fmt.Errorf("schemaio: version %q: %w", fv.ID, err)
			}
			if err := d.AddVersion(&core.MemberVersion{
				ID: core.MVID(fv.ID), Member: fv.Member, Name: fv.Name,
				Level: fv.Level, Attrs: fv.Attrs, Valid: valid,
			}); err != nil {
				return nil, fmt.Errorf("schemaio: %w", err)
			}
		}
		for _, fr := range fd.Relationships {
			valid, err := parseInterval(fr.From, fr.To)
			if err != nil {
				return nil, fmt.Errorf("schemaio: relationship %s→%s: %w", fr.Child, fr.Parent, err)
			}
			if err := d.AddRelationship(core.TemporalRelationship{
				From: core.MVID(fr.Child), To: core.MVID(fr.Parent), Valid: valid,
			}); err != nil {
				return nil, fmt.Errorf("schemaio: %w", err)
			}
		}
		if err := s.AddDimension(d); err != nil {
			return nil, fmt.Errorf("schemaio: %w", err)
		}
	}
	for _, fm := range in.Mappings {
		fwd, err := decodeMappers(fm.Forward)
		if err != nil {
			return nil, fmt.Errorf("schemaio: mapping %s→%s: %w", fm.From, fm.To, err)
		}
		back, err := decodeMappers(fm.Backward)
		if err != nil {
			return nil, fmt.Errorf("schemaio: mapping %s→%s: %w", fm.From, fm.To, err)
		}
		if err := s.AddMapping(core.MappingRelationship{
			From: core.MVID(fm.From), To: core.MVID(fm.To), Forward: fwd, Backward: back,
		}); err != nil {
			return nil, fmt.Errorf("schemaio: %w", err)
		}
	}
	for i, ff := range in.Facts {
		at, err := temporal.ParseInstant(ff.Time)
		if err != nil {
			return nil, fmt.Errorf("schemaio: fact %d: %w", i, err)
		}
		coords := make(core.Coords, len(ff.Coords))
		for j, c := range ff.Coords {
			coords[j] = core.MVID(c)
		}
		if err := s.InsertFact(coords, at, ff.Values...); err != nil {
			return nil, fmt.Errorf("schemaio: fact %d: %w", i, err)
		}
	}
	return s, nil
}

func decodeMappers(ms []fileMapper) ([]core.MeasureMapping, error) {
	out := make([]core.MeasureMapping, len(ms))
	for i, fm := range ms {
		cf, err := core.ParseConfidence(fm.CF)
		if err != nil {
			return nil, err
		}
		var fn core.Mapper
		switch {
		case fm.Unknown:
			fn = core.Unknown{}
		case fm.K != nil:
			fn = core.Linear{K: *fm.K}
		default:
			return nil, fmt.Errorf("mapper %d needs k or unknown", i)
		}
		out[i] = core.MeasureMapping{Fn: fn, CF: cf}
	}
	return out, nil
}

func parseInterval(from, to string) (temporal.Interval, error) {
	start, err := temporal.ParseInstant(from)
	if err != nil {
		return temporal.Interval{}, err
	}
	end, err := temporal.ParseInstant(to)
	if err != nil {
		return temporal.Interval{}, err
	}
	iv := temporal.Between(start, end)
	if iv.Empty() {
		return temporal.Interval{}, fmt.Errorf("empty interval [%s, %s]", from, to)
	}
	return iv, nil
}
