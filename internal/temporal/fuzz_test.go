package temporal

import "testing"

// FuzzParseInstant checks parse/format round-tripping: anything the
// parser accepts must render back to a form it accepts again, reaching
// the same instant.
func FuzzParseInstant(f *testing.F) {
	for _, s := range []string{"01/2001", "12/2002", "2003", "Now", "-inf", "00/2001", "junk", "13/1", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 64 {
			return
		}
		i, err := ParseInstant(input)
		if err != nil {
			return
		}
		back, err := ParseInstant(i.String())
		if err != nil {
			t.Fatalf("rendered form %q does not re-parse: %v", i.String(), err)
		}
		if back != i {
			t.Fatalf("round trip %q -> %v -> %v", input, i, back)
		}
	})
}
