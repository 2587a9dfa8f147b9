package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// BenchJSON is the machine-readable form of a scalability experiment that
// qsense-bench's -json flag emits (BENCH_<experiment>.json): enough
// metadata to identify the run plus one throughput series per scheme, so
// CI can archive results as artifacts and a perf trajectory can be plotted
// across commits without re-parsing the human tables.
type BenchJSON struct {
	Experiment string            `json:"experiment"`
	DS         string            `json:"ds"`
	KeyRange   int64             `json:"key_range"`
	UpdatePct  int               `json:"update_pct"`
	DurationMS int64             `json:"duration_ms"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Curves     []BenchCurveJSON  `json:"curves"`
	Extra      map[string]string `json:"extra,omitempty"`
}

// BenchCurveJSON is one scheme's series in BenchJSON.
type BenchCurveJSON struct {
	Scheme string           `json:"scheme"`
	Points []BenchPointJSON `json:"points"`
}

// BenchPointJSON is one (workers, throughput) sample, with the reclamation
// counters a perf dashboard most wants next to the headline number. The
// latency fields are present only for experiments that measure per-op
// latency (the kvd macro-benchmark, where workers = connections).
type BenchPointJSON struct {
	Workers        int     `json:"workers"`
	Mops           float64 `json:"mops"`
	Retired        uint64  `json:"retired"`
	Scans          uint64  `json:"scans"`
	ScannedRecords uint64  `json:"scanned_records"`
	ArenaSize      int     `json:"arena_size"`
	ParkedSlots    int     `json:"parked_slots"`
	RRetunes       uint64  `json:"r_retunes"`
	CRetunes       uint64  `json:"c_retunes"`
	Failed         bool    `json:"failed"`
	LatOps         uint64  `json:"lat_ops,omitempty"`
	P50us          float64 `json:"p50_us,omitempty"`
	P99us          float64 `json:"p99_us,omitempty"`
	P999us         float64 `json:"p999_us,omitempty"`
	MaxUs          float64 `json:"max_us,omitempty"`
	// Value-arena counters (byte-valued experiments only).
	ValueBytes    int64  `json:"value_bytes,omitempty"`
	ValueRetires  uint64 `json:"value_retires,omitempty"`
	StructRetires uint64 `json:"struct_retires,omitempty"`
	BadValues     uint64 `json:"bad_values,omitempty"`
}

// WriteCurvesJSON emits a scalability experiment as indented JSON.
func WriteCurvesJSON(w io.Writer, meta BenchJSON, curves []Curve) error {
	for _, c := range curves {
		jc := BenchCurveJSON{Scheme: c.Scheme}
		for _, p := range c.Points {
			jp := BenchPointJSON{
				Workers:        p.Workers,
				Mops:           p.Res.Mops,
				Retired:        p.Res.Reclaim.Retired,
				Scans:          p.Res.Reclaim.Scans,
				ScannedRecords: p.Res.Reclaim.ScannedRecords,
				ArenaSize:      p.Res.Reclaim.ArenaSize,
				ParkedSlots:    p.Res.Reclaim.ParkedSlots,
				RRetunes:       p.Res.Reclaim.RRetunes,
				CRetunes:       p.Res.Reclaim.CRetunes,
				Failed:         p.Res.Failed,
				ValueBytes:     p.Res.ValueBytes,
				ValueRetires:   p.Res.ValueRetires,
				StructRetires:  p.Res.StructRetires,
				BadValues:      p.Res.BadValues,
			}
			if h := p.Res.Latency; h != nil && h.Count() > 0 {
				us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
				jp.LatOps = h.Count()
				jp.P50us = us(h.Quantile(0.50))
				jp.P99us = us(h.Quantile(0.99))
				jp.P999us = us(h.Quantile(0.999))
				jp.MaxUs = us(h.Max())
			}
			jc.Points = append(jc.Points, jp)
		}
		meta.Curves = append(meta.Curves, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(meta)
}

// WriteCurvesJSONFile writes a BENCH_<experiment>.json to path. Unless
// force is set it refuses to overwrite an existing file: the committed
// bench/ trajectory is append-only history, and a rerun that silently
// clobbers a curve is how a regression's "before" disappears. The refusal
// uses O_EXCL, so two concurrent writers cannot both win.
func WriteCurvesJSONFile(path string, force bool, meta BenchJSON, curves []Curve) error {
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !force {
		flags = os.O_WRONLY | os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return fmt.Errorf("harness: %s already exists (pass -force to overwrite)", path)
		}
		return err
	}
	if err := WriteCurvesJSON(f, meta, curves); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RobustnessSeries is one scheme's pending-vs-time trace from the fault
// matrix (internal/fault): how many retired-but-unreclaimed nodes the
// domain accumulated while one reader sat stalled at a protocol sync point.
type RobustnessSeries struct {
	Scheme  string
	Robust  bool  // the matrix asserted a bounded ceiling for this scheme
	Ceiling int64 // the asserted bound (advisory for unbounded schemes)
	Points  []RobustnessPoint
}

// RobustnessPoint is one sample of the trace.
type RobustnessPoint struct {
	ElapsedMS float64
	Pending   int64
}

// WriteRobustnessJSON emits the fault matrix's pending-vs-time traces in the
// BenchJSON envelope, so the bench/ trajectory tooling ingests it like any
// other experiment. The series nature is flagged via Extra["series"], and the
// axes are re-purposed per that flag: Workers carries elapsed milliseconds,
// Mops carries the pending-node count.
func WriteRobustnessJSON(w io.Writer, series []RobustnessSeries) error {
	meta := BenchJSON{
		Experiment: "robustness",
		DS:         "fault-matrix",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Extra: map[string]string{
			"series": "pending_vs_time",
			"x":      "elapsed_ms",
			"y":      "pending_nodes",
		},
	}
	var durMS float64
	for _, s := range series {
		jc := BenchCurveJSON{Scheme: s.Scheme}
		for _, p := range s.Points {
			jc.Points = append(jc.Points, BenchPointJSON{
				Workers: int(p.ElapsedMS),
				Mops:    float64(p.Pending),
			})
			if p.ElapsedMS > durMS {
				durMS = p.ElapsedMS
			}
		}
		meta.Curves = append(meta.Curves, jc)
		meta.Extra["robust_"+s.Scheme] = fmt.Sprintf("%v", s.Robust)
		meta.Extra["ceiling_"+s.Scheme] = fmt.Sprintf("%d", s.Ceiling)
	}
	meta.DurationMS = int64(durMS)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(meta)
}

// WriteRobustnessJSONFile writes BENCH_robustness.json to path. The matrix
// regenerates the full file every run, so unlike the append-only perf
// trajectory it always overwrites.
func WriteRobustnessJSONFile(path string, series []RobustnessSeries) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := WriteRobustnessJSON(f, series); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCurvesCSV emits a scalability experiment as CSV: one row per worker
// count, one column per scheme (Mops/s) — the format of Figure 3 and the
// top row of Figure 5.
func WriteCurvesCSV(w io.Writer, curves []Curve) error {
	if len(curves) == 0 {
		return nil
	}
	hdr := []string{"workers"}
	for _, c := range curves {
		hdr = append(hdr, c.Scheme+"_mops")
	}
	if _, err := fmt.Fprintln(w, strings.Join(hdr, ",")); err != nil {
		return err
	}
	for i := range curves[0].Points {
		row := []string{fmt.Sprintf("%d", curves[0].Points[i].Workers)}
		for _, c := range curves {
			if i < len(c.Points) {
				row = append(row, fmt.Sprintf("%.4f", c.Points[i].Res.Mops))
			} else {
				row = append(row, "")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

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

// WriteSeriesCSV emits a delay experiment as CSV: one row per sample time,
// one Mops column per scheme plus QSense's fallback indicator — the format
// of Figure 5's bottom row.
func WriteSeriesCSV(w io.Writer, results map[string]Result, schemes []string) error {
	hdr := []string{"t_seconds"}
	for _, s := range schemes {
		hdr = append(hdr, s+"_mops")
	}
	hdr = append(hdr, "qsense_fallback")
	if _, err := fmt.Fprintln(w, strings.Join(hdr, ",")); err != nil {
		return err
	}
	n := 0
	for _, s := range schemes {
		if len(results[s].Samples) > n {
			n = len(results[s].Samples)
		}
	}
	for i := 0; i < n; i++ {
		var t float64
		row := make([]string, 0, len(schemes)+2)
		fallback := "0"
		for _, s := range schemes {
			smp := results[s].Samples
			if i < len(smp) {
				t = smp[i].T.Seconds()
				row = append(row, fmt.Sprintf("%.4f", smp[i].Mops))
				if s == "qsense" && smp[i].InFallback {
					fallback = "1"
				}
			} else {
				// A failed scheme's workers halted: report zero,
				// as the paper's terminated QSBR line implies.
				row = append(row, "0.0000")
			}
		}
		all := append([]string{fmt.Sprintf("%.2f", t)}, row...)
		all = append(all, fallback)
		if _, err := fmt.Fprintln(w, strings.Join(all, ",")); err != nil {
			return err
		}
	}
	return nil
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

// MeanMops averages a scheme's samples over an interval (inclusive start,
// exclusive end), for window-by-window comparisons between schemes.
func MeanMops(res Result, from, to float64) float64 {
	var sum float64
	var n int
	for _, s := range res.Samples {
		if t := s.T.Seconds(); t >= from && t < to {
			sum += s.Mops
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
