package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"mvolap/internal/temporal"
)

// randomEvolvingSchema builds a deterministic pseudo-random schema whose
// dimension members appear and disappear at random instants, producing a
// non-trivial set of structure versions. Used by property tests.
func randomEvolvingSchema(seed int64) *Schema {
	r := rand.New(rand.NewSource(seed))
	s := NewSchema("random", Measure{Name: "m", Agg: Sum})
	d := NewDimension("D", "D")

	// A root that always exists plus a second root appearing later.
	mustAdd := func(mv *MemberVersion) {
		if err := d.AddVersion(mv); err != nil {
			panic(err)
		}
	}
	mustRel := func(rel TemporalRelationship) {
		if err := d.AddRelationship(rel); err != nil {
			panic(err)
		}
	}
	mustAdd(&MemberVersion{ID: "root", Level: "Top", Valid: temporal.Since(temporal.Year(2000))})
	mustAdd(&MemberVersion{ID: "root2", Level: "Top", Valid: temporal.Since(temporal.Year(2000 + r.Intn(5)))})

	n := 2 + r.Intn(8)
	for i := 0; i < n; i++ {
		start := temporal.YM(2000+r.Intn(6), 1+r.Intn(12))
		var valid temporal.Interval
		if r.Intn(3) == 0 {
			valid = temporal.Since(start)
		} else {
			valid = temporal.Between(start, start+temporal.Instant(1+r.Intn(60)))
		}
		id := MVID(fmt.Sprintf("leaf%d", i))
		mustAdd(&MemberVersion{ID: id, Level: "Leaf", Valid: valid})
		parent := MVID("root")
		if r.Intn(2) == 0 {
			parent = "root2"
		}
		window := valid.Intersect(d.Version(parent).Valid)
		if !window.Empty() {
			mustRel(TemporalRelationship{From: id, To: parent, Valid: window})
		}
	}
	if err := s.AddDimension(d); err != nil {
		panic(err)
	}
	return s
}

// ordsOf translates coordinates into the member version ordinals a
// mapped table stores.
func ordsOf(s *Schema, c Coords) []int32 {
	out := make([]int32, len(c))
	for i, id := range c {
		out[i] = s.dims[i].members[id].ord
	}
	return out
}

// ancestorsAtLevel reads the member's ancestor set at the level out of
// the dimension's rollup table of D(at).
func (d *Dimension) ancestorsAtLevel(id MVID, level string, at temporal.Instant) []*MemberVersion {
	mv := d.members[id]
	if mv == nil {
		return nil
	}
	tab := d.rollupTableAt(level, at)
	lo, hi := tab.setOf(mv.ord)
	return tab.anc[lo:hi]
}

// naiveElements lists D(t) the obvious way — the dimension's level
// regime, and the member versions and relationships valid at t read
// through the public accessors — as sorted element strings, each its
// parts followed by a NUL byte: the encoding a chain hash digests. It is
// nil where the dimension holds nothing.
func naiveElements(d *Dimension, t temporal.Instant) []string {
	members := d.VersionsAt(t)
	if len(members) == 0 {
		return nil
	}
	out := []string{"explicit levels\x00" + strconv.FormatBool(d.HasExplicitLevels()) + "\x00"}
	for _, mv := range members {
		out = append(out, "member\x00"+string(mv.ID)+"\x00"+mv.Level+"\x00")
	}
	for _, r := range d.RelationshipsAt(t) {
		out = append(out, "edge\x00"+string(r.From)+"\x00"+string(r.To)+"\x00")
	}
	sort.Strings(out)
	return out
}

// naiveSignatureAt canonically encodes which member versions and
// relationships are valid at t across all dimensions, and under which
// level regime.
func naiveSignatureAt(s *Schema, t temporal.Instant) string {
	var b strings.Builder
	for _, d := range s.Dimensions() {
		b.WriteString(strings.Join(naiveElements(d, t), "|"))
		b.WriteString("\x1e")
	}
	return b.String()
}

// naiveHashAt recomputes the signature of the structure at t from
// naiveElements: per dimension the lane-wise sum, mod 2^64, of the first
// two 64-bit words of each element's SHA-256, in hex, "-" where it holds
// nothing, comma-separated.
func naiveHashAt(s *Schema, t temporal.Instant) string {
	var parts []string
	for _, d := range s.Dimensions() {
		elems := naiveElements(d, t)
		if elems == nil {
			parts = append(parts, "-")
			continue
		}
		var hi, lo uint64
		for _, e := range elems {
			sum := sha256.Sum256([]byte(e))
			hi += binary.BigEndian.Uint64(sum[:8])
			lo += binary.BigEndian.Uint64(sum[8:16])
		}
		parts = append(parts, fmt.Sprintf("%016x%016x", hi, lo))
	}
	return strings.Join(parts, ",")
}

// naiveVersion is one structure version as the naive oracle infers it.
type naiveVersion struct {
	valid temporal.Interval
	sig   string
}

// naiveStructureVersions is Definition 9 done the obvious way: partition
// history at every endpoint of every member version and relationship,
// and merge adjacent elementary intervals with the same naive
// signature.
func naiveStructureVersions(s *Schema) []naiveVersion {
	var ivs []temporal.Interval
	for _, d := range s.Dimensions() {
		for _, mv := range d.Versions() {
			ivs = append(ivs, mv.Valid)
		}
		for _, r := range d.Relationships() {
			ivs = append(ivs, r.Valid)
		}
	}
	var out []naiveVersion
	for _, e := range temporal.Partition(ivs) {
		sig := naiveSignatureAt(s, e.Start)
		if n := len(out); n > 0 && out[n-1].sig == sig && out[n-1].valid.Adjacent(e) {
			out[n-1].valid = out[n-1].valid.Hull(e)
			continue
		}
		out = append(out, naiveVersion{valid: e, sig: sig})
	}
	return out
}

// coldClone is a clone sharing no derived state with s: every dimension
// sweeps its chain and builds its rollup tables from nothing.
func coldClone(s *Schema) *Schema {
	c := s.Clone()
	c.svCache = nil
	for _, d := range c.dims {
		d.derived = &dimDerived{}
	}
	return c
}
