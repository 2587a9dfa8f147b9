package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// RenderCurvesTable renders a scalability experiment as an aligned table.
func RenderCurvesTable(w io.Writer, title string, curves []Curve) {
	fmt.Fprintf(w, "\n%s\n", title)
	fmt.Fprintf(w, "%-8s", "workers")
	for _, c := range curves {
		fmt.Fprintf(w, "%14s", c.Scheme)
	}
	fmt.Fprintln(w)
	if len(curves) == 0 {
		return
	}
	for i := range curves[0].Points {
		fmt.Fprintf(w, "%-8d", curves[0].Points[i].Workers)
		for _, c := range curves {
			if i < len(c.Points) {
				fmt.Fprintf(w, "%14.3f", c.Points[i].Res.Mops)
			} else {
				fmt.Fprintf(w, "%14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	ov := Overheads(curves)
	if len(ov) > 0 {
		names := make([]string, 0, len(ov))
		for k := range ov {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "overhead vs none:")
		for _, n := range names {
			fmt.Fprintf(w, "  %s %.1f%%", n, ov[n])
		}
		fmt.Fprintln(w)
	}
}

// RenderSeriesChart draws a coarse ASCII chart of a throughput time series,
// marking QSense fallback windows with 'f' and failure with 'X'.
func RenderSeriesChart(w io.Writer, scheme string, res Result, width int) {
	if width <= 0 {
		width = 50
	}
	var maxM float64
	for _, s := range res.Samples {
		if s.Mops > maxM {
			maxM = s.Mops
		}
	}
	fmt.Fprintf(w, "\n%s (peak %.3f Mops/s)\n", scheme, maxM)
	if maxM == 0 {
		fmt.Fprintln(w, "  (no throughput)")
		return
	}
	for _, s := range res.Samples {
		bars := int(s.Mops / maxM * float64(width))
		marker := ""
		if s.InFallback {
			marker = " f"
		}
		if s.Failed {
			marker = " X"
		}
		fmt.Fprintf(w, "%7.1fs |%-*s|%7.3f%s\n", s.T.Seconds(), width, strings.Repeat("#", bars), s.Mops, marker)
	}
}

// FallbackWindows extracts QSense's per-window mean throughput, split into
// fast-path and fallback-path samples — used to quote the paper's "Cadence
// outperforms HP by ~3x during fallback" claim.
func FallbackWindows(res Result) (fastMean, fallbackMean float64) {
	var fs, fn, bs, bn float64
	for _, s := range res.Samples {
		if s.InFallback {
			bs += s.Mops
			bn++
		} else {
			fs += s.Mops
			fn++
		}
	}
	if fn > 0 {
		fastMean = fs / fn
	}
	if bn > 0 {
		fallbackMean = bs / bn
	}
	return fastMean, fallbackMean
}
