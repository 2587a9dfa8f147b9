//go:build race

package kvd

// The race detector allocates on its own account (a goroutine start, as in
// every rooster pass, is enough), so allocation counts mean nothing under it.
func init() { raceDetector = true }
