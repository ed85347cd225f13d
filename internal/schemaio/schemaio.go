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
func Write(w io.Writer, s *core.Schema) error { return write(w, s, true) }

// WriteStructure serializes everything but the facts: the same
// document with no "facts" member, written compact (no indentation),
// which Read loads as a warehouse with an empty fact table. The store's
// snapshot container carries it beside the facts in their binary codec
// (core.WriteFacts); Read ignores whitespace, so a structure written
// indented loads alike.
func WriteStructure(w io.Writer, s *core.Schema) error { return write(w, s, false) }

func write(w io.Writer, s *core.Schema, withFacts bool) error {
	out := fileSchema{Name: s.Name}
	for _, m := range s.Measures() {
		out.Measures = append(out.Measures, fileMeasure{Name: m.Name, Agg: m.Agg.String()})
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
	for _, m := range s.Mappings() {
		fm := fileMapping{From: string(m.From), To: string(m.To)}
		var err error
		if fm.Forward, err = encodeMappers(m.Forward); err != nil {
			return fmt.Errorf("schemaio: mapping %s→%s: %w", m.From, m.To, err)
		}
		if fm.Backward, err = encodeMappers(m.Backward); err != nil {
			return fmt.Errorf("schemaio: mapping %s→%s: %w", m.From, m.To, err)
		}
		out.Mappings = append(out.Mappings, fm)
	}
	if withFacts {
		s.Facts().All(func(f *core.Fact) bool {
			ff := fileFact{Time: f.Time.String(), Values: slices.Clone(f.Values)}
			for _, id := range f.Coords {
				ff.Coords = append(ff.Coords, string(id))
			}
			out.Facts = append(out.Facts, ff)
			return true
		})
	}
	enc := json.NewEncoder(w)
	if withFacts {
		// The whole document is for human readers.
		enc.SetIndent("", "  ")
	}
	return enc.Encode(out)
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
