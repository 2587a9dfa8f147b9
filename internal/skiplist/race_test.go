//go:build race

package skiplist

// The race detector runs single-goroutine table arithmetic ≈ 30× slower and
// has nothing to find in it.
func init() { raceDetector = true }
