// Package report is the golden fixture: it shares its base name with
// the real byte-identical report package, so the determinism pass
// treats it as a zone.
package report

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
