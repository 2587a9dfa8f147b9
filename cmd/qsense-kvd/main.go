// qsense-kvd is the repository's network-facing demonstration: a
// RESP-style TCP key→value server over the elastic SkipMap, and — with
// -load — the macro-benchmark load generator that drives it.
//
// Server mode (the default) speaks GET/SET/DEL/STATS/PING/QUIT with
// integer keys and values, one goroutine and one leased map handle per
// connection, under any of the nine reclamation schemes:
//
//	qsense-kvd -addr :6380 -scheme qsense
//	qsense-kvd -addr :6380 -scheme hp -max-conns 256   # queue past 256
//	printf 'SET 1 42\r\nGET 1\r\nSTATS\r\n' | nc localhost 6380
//
// Load mode drives pooled connections through a zipf-skewed GET/SET/DEL
// mix shaped by a burst-then-idle phase plan (connection storms, then
// near-idle troughs — the traffic the elastic arena and the occupancy
// parking machinery exist for), records per-op round-trip latency into
// HDR-style buckets, and prints throughput with p50/p99/p999 per point and
// a throughput table. It is an exploratory driver and writes no file (the
// repository benchmark under benchmark/ is what gets compared across
// commits); it exits non-zero when a point's healthy connections completed
// no operation or a GET reply failed payload verification. With no -target
// it self-hosts a fresh in-process server per measured point, sweeping
// -schemes x -conns:
//
//	qsense-kvd -load -schemes qsense,hp -conns 4,16,64 -burst 2s -idle 1s -cycles 2
//	qsense-kvd -load -target host:6380 -conns 32 -theta 0.99 -updates 20
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qsense"
	"qsense/internal/harness"
	"qsense/internal/kvd"
	"qsense/internal/workload"
)

func main() {
	var (
		// Server mode.
		addr     = flag.String("addr", ":6380", "listen address (server mode)")
		scheme   = flag.String("scheme", "qsense", "reclamation scheme: "+strings.Join(qsense.SchemeNames(), ", "))
		maxConns = flag.Int("max-conns", 0, "admission cap: connections past it queue (0 = elastic, never refuse)")
		initial  = flag.Int("initial-conns", 0, "initial guard-arena size hint (0 = machine default)")
		maxNodes = flag.Int("max-nodes", 0, "map node-pool bound (0 = library default)")
		idleTO   = flag.Duration("idle-timeout", 0, "disconnect a connection silent for this long, releasing its lease (0 = never)")
		writeTO  = flag.Duration("write-timeout", 0, "disconnect a client that stops draining replies for this long (0 = never)")
		memLimit = flag.Int("mem-limit", 0, "pending-node soft limit: past it SET/DEL answer -BUSY while reads keep serving (0 = off)")

		// Load mode.
		load     = flag.Bool("load", false, "run as load generator instead of server")
		target   = flag.String("target", "", "server to drive; empty = self-host a fresh server per point")
		schemes  = flag.String("schemes", "qsense,hp,hyaline", "self-hosted schemes to sweep (load mode)")
		conns    = flag.String("conns", "4,16,64", "comma-separated connection counts to sweep")
		keyRange = flag.Int64("range", 1<<16, "key range")
		theta    = flag.Float64("theta", 0.99, "zipf skew in (0,1); <=0 = uniform keys")
		updates  = flag.Int("updates", 20, "update percentage (split SET/DEL; rest GET)")
		burst    = flag.Duration("burst", 2*time.Second, "burst phase length (full load)")
		idle     = flag.Duration("idle", time.Second, "idle phase length (idle-load fraction stays)")
		cycles   = flag.Int("cycles", 1, "burst+idle repetitions; 0 = one steady phase of -burst")
		idleLoad = flag.Float64("idle-load", 0.05, "fraction of connections kept during idle phases")
		seed     = flag.Uint64("seed", 1, "workload seed")
		vsizes   = flag.String("vsizes", "8", "comma-separated base value sizes (bytes) to sweep; >1 entry labels curves scheme@v<N>")
		vmax     = flag.Int("vmax", 0, "zipf-extend each value up to this many bytes (0 = fixed at the base size)")
		vtheta   = flag.Float64("vtheta", 0.99, "zipf skew of the value-size extension in (0,1); <=0 = uniform")
		stalls   = flag.Int("stall-conns", 0, "extra connections that dial, hold their lease and send nothing (idle clients: each holds a slot, none pins garbage)")
		stallLeg = flag.Int("stall-leg", 0, "append one extra curve: the first scheme rerun beside this many idle (-stall-conns) connections")
	)
	flag.Parse()

	if *load {
		runLoad(loadOpts{
			target: *target, schemes: *schemes, conns: *conns,
			keyRange: *keyRange, theta: *theta, updates: *updates,
			burst: *burst, idle: *idle, cycles: *cycles, idleLoad: *idleLoad,
			seed: *seed, maxNodes: *maxNodes, initial: *initial,
			stallConns: *stalls, stallLeg: *stallLeg, idleTO: *idleTO,
			vsizes: *vsizes, vmax: *vmax, vtheta: *vtheta,
		})
		return
	}
	runServer(kvd.Config{
		Scheme: *scheme, InitialConns: *initial, HardMaxConns: *maxConns, MaxNodes: *maxNodes,
		IdleTimeout: *idleTO, WriteTimeout: *writeTO, MemoryLimit: *memLimit,
	}, *addr)
}

// runServer serves until SIGINT/SIGTERM, then drains gracefully.
func runServer(cfg kvd.Config, addr string) {
	s, err := kvd.New(cfg)
	if err != nil {
		fatal(err)
	}
	a, err := s.Listen(addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("qsense-kvd: scheme=%s listening on %s\n", cfg.Scheme, a)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	case <-sig:
		fmt.Println("qsense-kvd: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "qsense-kvd: forced shutdown:", err)
		}
	}
	st := s.Stats()
	s.Close()
	fmt.Printf("qsense-kvd: served %d leases, arena %d (high water %d, %d growths), %d slots parked\n",
		st.AcquiredHandles, st.ArenaSize, st.HighWaterWorkers, st.ArenaGrowths, st.ParkedSlots)
}

type loadOpts struct {
	target, schemes, conns string
	keyRange               int64
	theta                  float64
	updates, cycles        int
	burst, idle            time.Duration
	idleLoad               float64
	seed                   uint64
	maxNodes, initial      int
	stallConns, stallLeg   int
	idleTO                 time.Duration
	vsizes                 string
	vmax                   int
	vtheta                 float64
}

// runLoad sweeps schemes x value sizes x connection counts and renders the
// curves. With -stall-leg it appends one more curve — the first scheme rerun
// beside that many idle -stall-conns connections — so a single table carries
// the idle-client leg alongside the clean ones.
func runLoad(o loadOpts) {
	if o.stallLeg > 0 && o.target != "" {
		fatal(fmt.Errorf("-stall-leg reruns a self-hosted scheme and cannot be combined with -target (use -stall-conns)"))
	}
	connCounts, err := parseInts(o.conns)
	if err != nil {
		fatal(err)
	}
	valSizes, err := parseInts(o.vsizes)
	if err != nil {
		fatal(fmt.Errorf("bad -vsizes: %w", err))
	}
	plan := workload.BurstIdle(o.burst, o.idle, o.cycles, o.idleLoad)
	if o.cycles <= 0 {
		plan = workload.Steady(o.burst)
	}
	schemeList := strings.Split(o.schemes, ",")
	for _, sc := range schemeList {
		if _, err := qsense.ParseScheme(sc); err != nil {
			fatal(err)
		}
	}
	if o.target != "" {
		// A remote target's scheme is whatever it runs; one curve.
		schemeList = []string{"remote"}
	}
	fmt.Printf("qsense-kvd -load: range %d, theta %.2f, %d%% updates, vsizes %v, plan %v (%d phases), conns %v, GOMAXPROCS=%d\n",
		o.keyRange, o.theta, o.updates, valSizes, plan.Total(), len(plan.Phases), connCounts, runtime.GOMAXPROCS(0))

	leg := func(label, sc string, vsize, stall int) harness.Curve {
		curve := harness.Curve{Scheme: label}
		size := workload.SizeDist{Base: vsize, Max: o.vmax, Theta: o.vtheta}
		for _, nc := range connCounts {
			target := o.target
			var srv *kvd.Server
			if target == "" {
				// Fresh server per point: counters (growth, parking) then
				// describe exactly this point's storm, not history.
				s, err := kvd.New(kvd.Config{Scheme: sc, InitialConns: o.initial, MaxNodes: o.maxNodes, IdleTimeout: o.idleTO})
				if err != nil {
					fatal(err)
				}
				a, err := s.Start("127.0.0.1:0")
				if err != nil {
					fatal(err)
				}
				srv, target = s, a.String()
			}
			res, err := kvd.RunLoad(kvd.LoadConfig{
				Target: target, Conns: nc, KeyRange: o.keyRange, Theta: o.theta,
				UpdatePct: o.updates, Plan: plan, Seed: o.seed,
				ValueSize: size, StallConns: stall,
			})
			if srv != nil {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				srv.Shutdown(ctx)
				cancel()
				srv.Close()
			}
			if err != nil {
				fatal(err)
			}
			if res.BadValues > 0 {
				fatal(fmt.Errorf("%s conns=%d: %d GET replies failed payload verification (torn or freed values)", label, nc, res.BadValues))
			}
			h := res.Latency
			fmt.Printf("%-14s conns=%-4d %8.3f Mops/s  p50 %7s  p99 %7s  p999 %7s  (%d ops, %d errs)\n",
				label, nc, res.Mops, h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), res.Ops, res.Errs)
			curve.Points = append(curve.Points, harness.Point{Workers: nc, Res: harness.Result{Mops: res.Mops}})
		}
		return curve
	}

	var curves []harness.Curve
	for _, sc := range schemeList {
		for _, vs := range valSizes {
			label := sc
			if len(valSizes) > 1 {
				label = fmt.Sprintf("%s@v%d", sc, vs)
			}
			curves = append(curves, leg(label, sc, vs, o.stallConns))
		}
	}
	if o.stallLeg > 0 {
		sc := schemeList[0]
		curves = append(curves, leg(fmt.Sprintf("%s+stall%d", sc, o.stallLeg), sc, valSizes[0], o.stallLeg))
	}
	harness.RenderCurvesTable(os.Stdout,
		fmt.Sprintf("Throughput (Mops/s): kvd skipmap, %d%% updates, range %d, theta %.2f", o.updates, o.keyRange, o.theta),
		curves)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad connection count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qsense-kvd:", err)
	os.Exit(1)
}
