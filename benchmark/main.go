// The repo benchmark: four workloads that price the same GET/SET/DEL stream
// from the reclamation guard up to the TCP round trip. README.md has the
// tables; BENCHMARK.json declares the metric names this program prints.
//
//	bash benchmark/run.sh --workload kv-read --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -seed 1            # every workload, then its trace
//	bash benchmark/run.sh -selfcheck         # the suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricDef declares one metric: BENCHMARK.json carries the same rows, and
// smoke_test.go holds the two together.
type metricDef struct {
	name, unit string
	lower      bool    // lower is better
	bound      float64 // end-to-end only: allowed worsening, as a share
}

var endToEnd = []metricDef{
	{"throughput_ops_s", "ops/s", false, 0.20},
	{"latency_p50_us", "us", true, 0.25},
	{"cpu_us_per_op", "us", true, 0.25},
	{"rss_peak_mb", "MiB", true, 0.20},
	{"setup_s", "s", true, 0.25},
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed    uint64
	seconds int
	kvdBin  string
	short   bool // smoke sizing: see the -short flag
}

// The sizes -short shrinks: counts of work to a sixteenth, repetitions to one.
func (c config) warmupUnits() int  { return c.sized(warmupOps/unitOps/workers, 16) }
func (c config) streamUnits() int  { return c.sized(streamUnits, 16) }
func (c config) setupReps() int    { return c.sized(setupReps, setupReps) }
func (c config) probeRuns() int    { return c.sized(probeRuns, probeRuns) }
func (c config) probeSeconds() int { return c.sized(probeSeconds, probeSeconds) }

func (c config) sized(n, shrink int) int {
	if c.short {
		return n / shrink
	}
	return n
}

// runOnce measures sp once: over TCP against a server child, or in a worker
// child of this binary. seconds == 0 sets up and stops.
func (c config) runOnce(sp spec, seconds int, traceMode bool) (result, error) {
	if sp.kv {
		return runKV(sp, c, seconds, traceMode)
	}
	return runLib(sp, c, seconds, traceMode)
}

// endToEndRun is the untraced run: set-up setupReps times, the last of them
// followed by the timed phase.
func (c config) endToEndRun(sp spec) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	var setups []float64
	var res result
	for i := 0; i < c.setupReps(); i++ {
		seconds := 0
		if i == c.setupReps()-1 {
			seconds = c.seconds
		}
		r, err := c.runOnce(sp, seconds, false)
		if err != nil {
			return rep, err
		}
		setups = append(setups, r.SetupS)
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		res = r
	}
	if res.Ops == 0 {
		return rep, fmt.Errorf("%s: no verified op completed", sp.name)
	}
	values := []float64{
		res.Throughput,
		res.LatP50Us,
		res.CPUSeconds * 1e6 / float64(res.Ops) / res.Slow,
		res.RSSPeakMB,
		median(setups),
	}
	for i, d := range endToEnd {
		rep.Metrics[d.name] = metric{values[i], d.unit}
	}
	rep.Correct = rep.Failed == 0
	fmt.Printf("%s: %d windows, reference at %.3f of nominal speed (unscaled throughput %.0f ops/s), %d latency samples of %d ops, %d set-ups %.3f s, attempted %d, failed %d\n",
		sp.name, c.seconds, 1/res.Slow, res.Unscaled, res.LatSamples, unitOps, len(setups), setups, rep.Attempted, rep.Failed)
	return rep, nil
}

// print writes the metrics by name, then the report as the last line.
func (rep report) print(sp spec, defs []metricDef) {
	for _, d := range defs {
		m := rep.Metrics[d.name]
		fmt.Printf("%-16s %-32s %14.4f %s\n", sp.name, d.name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// envStamp describes where and on what the numbers were taken.
func envStamp(c config) string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("env: commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d seed=%d windows=%d unit_ops=%d setup_reps=%d",
		commit, runtime.Version(), cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), c.seed, c.seconds, unitOps, c.setupReps())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run; empty runs them all")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", 15, "length of the timed phase, in 1 s windows")
		trace     = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
		kvdBin    = flag.String("kvd", "", "path of the qsense-kvd binary (run.sh builds and passes it)")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and compare the two against the bounds")
		short     = flag.Bool("short", false, "smoke sizing: 1/16 of the warm-up and of the layer stream, one set-up, one 1 s probe")
		role      = flag.String("role", "", "internal: the part a child process plays")
		spawned   = flag.Int64("spawned", 0, "internal: when the parent started this child, in Unix ns")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 0 || *seconds > 60 || (*role == "" && *seconds == 0) {
		fatal(fmt.Errorf("-seconds %d is out of range", *seconds))
	}
	c := config{seed: *seed, seconds: *seconds, kvdBin: *kvdBin, short: *short}

	if *role != "" {
		sp, ok := findSpec(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		childMain(*role, sp, c, *trace == 1, time.Unix(0, *spawned))
		return
	}
	fmt.Println(envStamp(c))
	if *selfcheck {
		os.Exit(selfCheck(c))
	}
	list := specs
	if *name != "" {
		sp, ok := findSpec(*name)
		if !ok {
			var names []string
			for _, s := range specs {
				names = append(names, s.name)
			}
			fatal(fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", ")))
		}
		list = []spec{sp}
	}
	for _, sp := range list {
		if *trace == 0 || *name == "" {
			rep, err := c.endToEndRun(sp)
			if err != nil {
				fatal(err)
			}
			rep.print(sp, endToEnd)
		}
		if *trace == 1 {
			rep, err := c.tracedRun(sp)
			if err != nil {
				fatal(err)
			}
			rep.print(sp, perLayer)
		}
	}
}

// childMain is a child process of the benchmark itself.
func childMain(role string, sp spec, c config, traceMode bool, spawned time.Time) {
	switch role {
	case "lib":
		res, err := libChild(sp, c, traceMode, spawned)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
	case "probe":
		probeChild(sp, c.seed, time.Duration(c.seconds)*time.Second)
	default:
		fatal(fmt.Errorf("unknown role %q", role))
	}
}

// selfCheck runs the suite twice back to back and compares every workload's
// end-to-end metrics with their bounds. It returns the exit code.
func selfCheck(c config) int {
	var runs [2]map[string]report
	for i := range runs {
		runs[i] = map[string]report{}
		for _, sp := range specs {
			rep, err := c.endToEndRun(sp)
			if err != nil {
				fatal(err)
			}
			runs[i][sp.name] = rep
		}
	}
	code := 0
	fmt.Printf("%-16s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, sp := range specs {
		a, b := runs[0][sp.name], runs[1][sp.name]
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			worse := (x - y) / x // higher is better: a drop is worse
			if d.lower {
				worse = (y - x) / x
			}
			verdict := ""
			if worse > d.bound {
				verdict, code = "  EXCEEDS", 1
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", sp.name, d.name, x, y, 100*worse, 100*d.bound, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%-16s failed ops: %d and %d\n", sp.name, a.Failed, b.Failed)
			code = 1
		}
	}
	return code
}
