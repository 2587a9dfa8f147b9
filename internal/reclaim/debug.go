//go:build !qsensedebug

package reclaim

// assertUnprotected is a no-op in release builds — the Leave assertion
// compiles away entirely; see debug_on.go.
func assertUnprotected(*hprec) {}
