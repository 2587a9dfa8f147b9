package workload

// Value-size distributions and self-verifying payloads for the byte-valued
// macro-benchmark: the load generator sizes each SET from a SizeDist and
// fills it with AppendPayload, and verifies every GET reply with
// VerifyPayload — a torn or freed value read by the server is detected at
// the client as a checksum mismatch, not just a wrong byte.

import "encoding/binary"

// SizeDist describes a value-size distribution: every value is at least
// Base bytes, optionally extended by a zipf-skewed amount up to Max (small
// extensions are the common case, near-Max ones the tail — the shape of
// real KV value populations). Max <= Base means fixed Base-byte values.
type SizeDist struct {
	Base  int     // minimum (or fixed) value size in bytes
	Max   int     // inclusive size cap; <= Base disables the extension
	Theta float64 // zipf skew of the extension; <= 0 makes it uniform
}

// Fixed reports whether every sample has the same size.
func (d SizeDist) Fixed() bool { return d.Max <= d.Base }

// Sample draws a value size.
func (d SizeDist) Sample(r *RNG) int {
	if d.Fixed() {
		return d.Base
	}
	return d.Base + int(r.ZipfKey(int64(d.Max-d.Base+1), d.Theta))
}

// payloadSeed derives the stream seed for a (key, salt, length) triple.
func payloadSeed(key int64, salt uint64, n int) uint64 {
	return uint64(key)*0x9e3779b97f4a7c15 ^ salt ^ uint64(n)<<1
}

// AppendPayload appends an n-byte self-verifying value for key onto dst.
// Payloads of 8+ bytes embed the salt (a per-write nonce) in their first 8
// bytes, little-endian, and fill the rest from a splitmix stream seeded by
// (key, salt, n) — so two writes to the same key with different salts
// produce wholly different streams, and a reader that stitches bytes from
// two of them (a torn read) or from a recycled slot (a freed read) fails
// VerifyPayload. Shorter payloads have no room for a salt; they are fully
// determined by (key, n), which is still enough to catch cross-key and
// freed-value corruption — and sub-8-byte values live inline in a single
// atomic word, untearable by construction.
func AppendPayload(dst []byte, key int64, salt uint64, n int) []byte {
	if n < 8 {
		salt = 0
	}
	rng := RNG{state: payloadSeed(key, salt, n)}
	if n >= 8 {
		dst = binary.LittleEndian.AppendUint64(dst, salt)
		n -= 8
	}
	for ; n >= 8; n -= 8 {
		dst = binary.LittleEndian.AppendUint64(dst, rng.Next())
	}
	if n > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Next())
		dst = append(dst, w[:n]...)
	}
	return dst
}

// VerifyPayload reports whether b is an intact AppendPayload stream for
// key.
func VerifyPayload(b []byte, key int64) bool {
	n := len(b)
	var salt uint64
	if n >= 8 {
		salt, b = binary.LittleEndian.Uint64(b), b[8:]
	}
	rng := RNG{state: payloadSeed(key, salt, n)}
	for ; len(b) >= 8; b = b[8:] {
		if binary.LittleEndian.Uint64(b) != rng.Next() {
			return false
		}
	}
	if len(b) > 0 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], rng.Next())
		return string(b) == string(w[:len(b)])
	}
	return true
}
