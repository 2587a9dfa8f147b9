package kvd

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"qsense"
)

// parseStats parses a STATS reply body back into its numeric fields
// (the scheme line is skipped).
func parseStats(text []byte) map[string]int64 {
	out := map[string]int64{}
	for _, line := range strings.Split(string(text), "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			out[k] = n
		}
	}
	return out
}

// snakeCase is the STATS spelling of a qsense.Stats field name:
// HighWaterWorkers → high_water_workers, RRetunes → r_retunes,
// IBRIntervalWidth → ibr_interval_width.
func snakeCase(name string) string {
	var b strings.Builder
	r := []rune(name)
	for i, c := range r {
		if unicode.IsUpper(c) && i > 0 &&
			(unicode.IsLower(r[i-1]) || (i+1 < len(r) && unicode.IsLower(r[i+1]))) {
			b.WriteByte('_')
		}
		b.WriteRune(unicode.ToLower(c))
	}
	return b.String()
}

// TestStatsFieldsCoverStats: qsense.Stats and statsFields are two hand-kept
// lists of the same counters. Every numeric or bool field must have exactly
// one STATS line, named the snake_case of the field and reading that field
// and no other, and no line may exist without a field — so a counter added
// to the struct cannot be silently absent from the server's STATS.
func TestStatsFieldsCoverStats(t *testing.T) {
	typ := reflect.TypeOf(qsense.Stats{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var st qsense.Stats
		v := reflect.ValueOf(&st).Elem().Field(i)
		want := int64(i + 2)
		switch {
		case f.Type.Kind() == reflect.String:
			continue // the scheme line, which statsText writes itself
		case f.Type.Kind() == reflect.Bool:
			v.SetBool(true)
			want = 1
		case v.CanInt():
			v.SetInt(want)
		case v.CanUint():
			v.SetUint(uint64(want))
		default:
			t.Fatalf("qsense.Stats.%s is a %v: teach statsFields and this test to render it", f.Name, f.Type)
		}
		key := snakeCase(f.Name)
		fields[key] = true
		lines := 0
		for _, kv := range statsFields(st) {
			switch {
			case kv.k == key:
				lines++
				if kv.v != want {
					t.Errorf("STATS line %q reads %d with Stats.%s = %d", key, kv.v, f.Name, want)
				}
			case kv.v != 0:
				t.Errorf("STATS line %q reads Stats.%s", kv.k, f.Name)
			}
		}
		if lines != 1 {
			t.Errorf("Stats.%s has %d STATS lines named %q, want 1", f.Name, lines, key)
		}
	}
	for _, kv := range statsFields(qsense.Stats{}) {
		if !fields[kv.k] {
			t.Errorf("STATS line %q has no qsense.Stats field", kv.k)
		}
	}
}
