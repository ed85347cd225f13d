package tql

import (
	"strings"
	"testing"
)

// FuzzParse checks the TQL parser never panics, that what it accepts is
// well formed (a known statement kind, a SELECT with at least one
// axis), and that an accepted SELECT or QUALITY plans against the
// case-study schema without panicking, to a query with a key.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT Amount BY Org.Division, TIME.YEAR WHERE TIME BETWEEN 2001 AND 2002 MODE tcm",
		"SELECT * BY Org.Department, TIME.MONTH",
		"QUALITY SELECT Amount BY Org.Department, TIME.YEAR",
		"MODES",
		"EXPLAIN Dpt.Jones_id AT 2003 MODE V2",
		"SELECT Amount BY Org.Department, TIME.YEAR WHERE Org IN 'Dpt.Smith', Dpt.Brian",
		"SELECT a BY b.c MODE VERSION AT 06/2001",
		"select amount by org.division, time.quarter",
		"",
		"SELECT",
		"garbage input ' with quotes",
		"SELECT Amount BY Org.Division, TIME.ALL WHERE Org IN Z, A, Z MODE VERSION AT 2004",
		"SELECT 'we ird' BY 'di m'.'le vel', TIME.YEAR WHERE TIME BETWEEN 12/2001 AND 2002",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	s := caseSchema(f)
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1024 {
			return
		}
		st, err := Parse(input)
		if err != nil {
			return
		}
		if st == nil {
			t.Fatal("nil statement without error")
		}
		// Round-trip sanity for SELECTs: Kind must be a known value.
		switch st.Kind {
		case KindSelect, KindModes, KindQuality, KindExplain:
		default:
			t.Fatalf("unknown kind %d", st.Kind)
		}
		if st.Kind == KindSelect && len(st.Axes) == 0 {
			t.Fatal("accepted SELECT without axes")
		}
		if strings.TrimSpace(input) == "" {
			t.Fatal("accepted blank input")
		}
		if st.Kind != KindSelect && st.Kind != KindQuality {
			return
		}
		if q, err := st.Plan(s); err == nil && q.Key() == "" {
			t.Fatalf("empty plan key for %q", input)
		}
	})
}
