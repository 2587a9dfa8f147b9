//go:build qsensedebug

package reclaim

import (
	"fmt"

	"qsense/internal/mem"
)

// assertUnprotected panics if a guard leaving the protocol still holds a
// Ref in one of its hazard slots: a Protect since its last ClearHPs. Leave is
// called only where the worker holds no references to shared nodes
// (membership.go), and a caller that breaks that — kvd leaving before a
// socket read with an operation's protections still up — would be protected
// by nothing once QSense's scans stop seeing it. An inactive record's slot
// values are stale, not held (hprec). Enabled by `-tags qsensedebug`; CI's
// debug step runs this package and internal/kvd with it.
func assertUnprotected(h *hprec) {
	if !h.on {
		return
	}
	for i := range h.pending {
		if v := h.pending[i].v.Load(); v != 0 {
			panic(fmt.Sprintf("reclaim: Leave with hazard slot %d still holding %v", i, mem.Ref(v)))
		}
	}
}
