package kvd

import (
	"strconv"
	"testing"
)

// FuzzParseKey holds parseKey to the strconv call it stands in for: the
// same value, and an error exactly when strconv returns one, for any bytes.
func FuzzParseKey(f *testing.F) {
	for _, seed := range []string{
		"", "-", "+5", "007", "-0", "42", "-42", "1x", " 1",
		"123456789012345678", "-123456789012345678", // 18 digits: the loop
		"1234567890123456789", "-1234567890123456789", // 19: strconv
		strconv.FormatInt(-1<<63, 10), strconv.FormatInt(1<<63-1, 10),
		"9223372036854775808", "99999999999999999999",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := parseKey(b)
		want, wantErr := strconv.ParseInt(string(b), 10, 64)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("parseKey(%q) = %d, %v; strconv says %d, %v", b, got, err, want, wantErr)
		}
	})
}
