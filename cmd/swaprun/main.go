// Command swaprun drives a synthetic iterative application on the live
// swapping runtime (internal/swaprt over internal/mpi): a world of ranks
// in this process, an injectable load schedule that slows chosen "hosts"
// mid-run, and either an in-process swap manager or a remote swapmgr
// daemon. It is the end-to-end harness for the runtime half of the
// reproduction. With -scenarios N it is also the runtime's seeded soak:
// N fresh runs whose slowdown rotates over the active ranks and onsets,
// each checked by the whole-run accumulator oracle.
//
// Examples:
//
//	swaprun -ranks 4 -active 2 -iters 40 -inject 1@0.3:8
//	swaprun -ranks 6 -active 3 -policy safe -inject 0@0.5:4,2@1:6
//	swapmgr -addr 127.0.0.1:7070 &  swaprun -manager 127.0.0.1:7070
//	swaprun -scenarios 100 -iters 30 -work 1 -accel 50 -lens -chaos 'seed=7;mgrdown:after=2,count=6'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs"
	"repro/internal/obs/obsflag"
	"repro/internal/swaprt"
	"repro/internal/swaprt/policylens"
)

// injection is one scheduled load event: the host of Rank runs Factor
// times slower from Delay into the run on or, when AfterIter > 0, from
// Rank's iteration AfterIter+1 on.
type injection struct {
	Rank      int
	Delay     time.Duration
	AfterIter int
	Factor    float64
}

// parseInjections parses a load schedule, rank@seconds:factor[,...].
func parseInjections(spec string) ([]injection, error) {
	if spec == "" {
		return nil, nil
	}
	var out []injection
	for _, part := range strings.Split(spec, ",") {
		rank, rest, ok1 := strings.Cut(part, "@")
		secs, factor, ok2 := strings.Cut(rest, ":")
		r, err1 := strconv.Atoi(rank)
		d, err2 := strconv.ParseFloat(secs, 64)
		f, err3 := strconv.ParseFloat(factor, 64)
		if !ok1 || !ok2 || errors.Join(err1, err2, err3) != nil {
			return nil, fmt.Errorf("injection %q: want rank@seconds:factor", part)
		}
		if f < 1 {
			return nil, fmt.Errorf("injection %q: factor must be >= 1", part)
		}
		out = append(out, injection{Rank: r, Delay: time.Duration(d * float64(time.Second)), Factor: f})
	}
	return out, nil
}

// injector tracks per-rank slowdown factors.
type injector struct {
	mu     sync.Mutex
	factor []float64
}

func (in *injector) slowdown(rank int) float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.factor[rank]
}

func (in *injector) apply(i injection) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.factor[i.Rank] = i.Factor
}

// options is a parsed, validated command line.
type options struct {
	ranks, active, iters, state, scenarios int

	workMS     float64
	policy     core.Policy
	manager    string
	injections []injection
	handler    time.Duration
	tcp        bool
	chaos      string
	transfer   time.Duration
	debug      string
	accel      float64
	mgrStore   string
	mgrTTL     time.Duration
	obs        *obsflag.Flags

	// tm is the one virtual clock that drives everything that waits:
	// work spinning, load injections, swap timeouts, retry backoffs,
	// handler tickers, and the trace and telemetry timestamps. At
	// -accel 1 it is the wall clock.
	tm clock.Clock
}

// parse reads and validates a command line. Every error it returns is a
// usage error, found before any world is built.
func parse(args []string) (*options, error) {
	o := &options{}
	fs := flag.NewFlagSet("swaprun", flag.ContinueOnError)
	fs.IntVar(&o.ranks, "ranks", 4, "world size (actives + spares)")
	fs.IntVar(&o.active, "active", 2, "active processes")
	fs.IntVar(&o.iters, "iters", 40, "iterations")
	fs.Float64Var(&o.workMS, "work", 20, "unloaded compute milliseconds per iteration per rank")
	fs.IntVar(&o.state, "state", 4096, "extra registered state bytes per process")
	policy := fs.String("policy", "greedy", "swap policy: greedy, safe or friendly")
	fs.StringVar(&o.manager, "manager", "", "remote swapmgr address (overrides -policy decisions locally)")
	inject := fs.String("inject", "1@0.3:8", "load schedule: rank@seconds:factor[,...]; empty for none")
	fs.DurationVar(&o.handler, "handler", 0, "swap-handler probe interval (0 = probe at swap points only)")
	fs.BoolVar(&o.tcp, "tcp", false, "use the TCP transport between ranks instead of in-process")
	fs.StringVar(&o.chaos, "chaos", "", "fault plan, e.g. 'seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6' (see internal/mpi/fault); empty for none")
	fs.DurationVar(&o.transfer, "transfer-timeout", 0, "per-leg state-transfer deadline before a swap aborts (0 = runtime default)")
	fs.StringVar(&o.debug, "debug-addr", "", "HTTP debug endpoint serving /metrics (Prometheus), /telemetry (JSON) and /healthz (e.g. 127.0.0.1:7081)")
	fs.Float64Var(&o.accel, "accel", 1, "time acceleration: run the whole schedule (work, injections, backoffs, timeouts) on a virtual clock this many times faster than wall time")
	fs.StringVar(&o.mgrStore, "mgr-store", "", "durable manager store directory: runs a crash-restartable in-process swapmgr (WAL + leader lease) instead of plain local decisions; required home for mgrkill/mgrrestart chaos")
	fs.DurationVar(&o.mgrTTL, "mgr-lease-ttl", 2*time.Second, "manager leader-lease duration (virtual time); a restarted manager waits out the dead leader's lease")
	fs.IntVar(&o.scenarios, "scenarios", 1, "run this many fresh scenarios whose 10x slowdown rotates over the active ranks and onsets (replaces -inject), and print aggregate stats")
	o.obs = obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if o.policy, err = core.Named(*policy); err != nil {
		return nil, err
	}
	switch {
	case o.accel <= 0:
		return nil, fmt.Errorf("-accel must be positive, got %g", o.accel)
	case o.ranks < 1:
		return nil, fmt.Errorf("-ranks must be at least 1, got %d", o.ranks)
	case o.active < 1 || o.active > o.ranks:
		return nil, fmt.Errorf("-active must be in [1, %d] (-ranks), got %d", o.ranks, o.active)
	case o.iters < 0:
		return nil, fmt.Errorf("-iters must be non-negative, got %d", o.iters)
	case o.state < 0:
		return nil, fmt.Errorf("-state must be non-negative, got %d", o.state)
	case o.scenarios < 1:
		return nil, fmt.Errorf("-scenarios must be at least 1, got %d", o.scenarios)
	}
	if o.scenarios == 1 {
		if o.injections, err = parseInjections(*inject); err != nil {
			return nil, err
		}
		for _, i := range o.injections {
			if i.Rank < 0 || i.Rank >= o.ranks {
				return nil, fmt.Errorf("injection rank %d out of world [0,%d)", i.Rank, o.ranks)
			}
		}
	}
	if o.chaos != "" {
		if _, err := fault.Parse(o.chaos); err != nil {
			return nil, err
		}
	}
	if o.scenarios > 1 {
		// A sweep cannot share one output file, listen address or store
		// among its runs, its rotation replaces the load schedule, and the
		// rotation divides by iters/2.
		for _, name := range []string{"trace-out", "events-out", "metrics-out", "flight-dir", "debug-addr", "manager", "mgr-store"} {
			if fs.Lookup(name).Value.String() != "" {
				return nil, fmt.Errorf("-%s names one file, address or store; it cannot be shared by %d scenarios", name, o.scenarios)
			}
		}
		injectSet := false
		fs.Visit(func(f *flag.Flag) { injectSet = injectSet || f.Name == "inject" })
		switch {
		case injectSet:
			return nil, fmt.Errorf("-inject does not apply with -scenarios: each scenario's slowdown comes from the rotation")
		case o.workMS <= 0:
			return nil, fmt.Errorf("-scenarios needs -work > 0: the rotated slowdown slows each scenario's work")
		case o.iters < 2:
			return nil, fmt.Errorf("-scenarios needs -iters >= 2 to rotate the slowdown onset, got %d", o.iters)
		}
	}
	if o.obs.Telemetry && o.handler == 0 {
		// Telemetry rides on the swap handlers' periodic reports; give
		// them the telemetry cadence unless the user picked their own.
		o.handler = o.obs.TelemetryInterval
	}
	o.tm = clock.Real{}
	if o.accel != 1 {
		o.tm = clock.NewScaled(o.accel)
	}
	return o, nil
}

func main() {
	o, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swaprun:", err)
		os.Exit(2)
	}
	if o.accel != 1 {
		log.Printf("accel: virtual time runs %gx wall time", o.accel)
	}
	if o.scenarios > 1 {
		if err := sweep(o, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(o, o.injections, log.Printf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("completed %d iterations on %d/%d ranks in %.2fs with %d swap participations\n",
		o.iters, o.active, o.ranks, res.wall.Seconds(), res.swaps)
	fmt.Printf("runtime stats: %s\n", res.stats)
	if res.hub != nil {
		rep := res.hub.Report()
		fmt.Printf("live telemetry: %d decisions (%d swap verdicts, %d committed), %d ranks observed\n",
			rep.Decisions.Count, rep.Decisions.SwapVerdicts, rep.Decisions.Swaps, len(rep.Ranks))
	}
	if res.lens != nil {
		rep := res.lens.Report()
		fmt.Printf("live lens: %d decisions, %d commits, %d realized (%d mispredicted), %d shadow decisions\n",
			rep.Decisions, rep.Commits, rep.Realized, rep.Mispredicts, rep.ShadowDecisions())
	}
	if res.corrupt != nil {
		fatal(fmt.Errorf("numerical result corrupted: %v", res.corrupt))
	}
}

// scenarioLoad is sweep scenario i's load schedule: active rank
// i mod active slows 10x once it has finished
// onset = iters/4 + (7i mod iters/2) iterations, so the sweep swaps out
// either active slot at many points of the run. The onset counts
// iterations, not virtual time: on an accelerated clock a short
// iteration's communication and swap-point overhead can dwarf its work,
// and a time-based onset would then land in the first iteration.
func scenarioLoad(i int, o *options) injection {
	return injection{Rank: i % o.active, AfterIter: o.iters/4 + (7*i)%(o.iters/2), Factor: 10}
}

// sweep runs o.scenarios fresh runs back to back on the shared (usually
// scaled) clock, each with its own rotated load schedule and, when the
// chaos plan kills the manager, its own temporary store. It prints one
// line per failed scenario and the aggregate statistics to w, and fails
// if any scenario did.
func sweep(o *options, w io.Writer) error {
	fmt.Fprintf(w, "sweep: %d scenarios, %d ranks, %d active, %d iters, accel %gx\n",
		o.scenarios, o.ranks, o.active, o.iters, o.accel)
	wallStart := time.Now()
	var ok, failed, swaps, aborts, quarantined, decisions int
	var realized, mispredicts, shadowEvals, divergences int
	for i := 0; i < o.scenarios; i++ {
		load := scenarioLoad(i, o)
		res, err := run(o, []injection{load}, func(string, ...any) {})
		if err == nil {
			err = res.corrupt
		}
		if err != nil {
			failed++
			fmt.Fprintf(w, "scenario %d (rank %d slows at iter %d): %s\n",
				i, load.Rank, load.AfterIter, strings.ReplaceAll(err.Error(), "\n", "; "))
			continue
		}
		ok++
		swaps += res.stats.Swaps
		aborts += res.stats.SwapAborts
		quarantined += res.stats.Quarantined
		decisions += res.stats.Decisions
		if res.lens != nil {
			rep := res.lens.Report()
			realized += rep.Realized
			mispredicts += rep.Mispredicts
			for _, s := range rep.Shadow {
				shadowEvals += s.Decisions
				divergences += s.Decisions - s.Agreements
			}
		}
	}
	fmt.Fprintf(w, "sweep done: %d ok, %d failed, %d swaps (%d aborted, %d quarantined), %d decisions in %.1fs wall\n",
		ok, failed, swaps, aborts, quarantined, decisions, time.Since(wallStart).Seconds())
	if o.obs.Lens {
		fmt.Fprintf(w, "sweep lens: %d paybacks realized (%d mispredicted), %d shadow evals (%d divergences)\n",
			realized, mispredicts, shadowEvals, divergences)
	}
	if failed > 0 {
		return fmt.Errorf("%d/%d scenarios failed", failed, o.scenarios)
	}
	return nil
}

// oracle is the whole-run check: every active lane that finishes must
// hold the fault-free accumulator, iters × active. A swap that lost,
// doubled or resurrected stale state shows up on whichever lane
// carried it, leader or not.
type oracle struct {
	want float64
	mu   sync.Mutex
	bad  error // every corrupt lane, joined
}

// check records lane rank's final accumulator and returns its verdict.
func (o *oracle) check(rank int, acc float64) error {
	if acc == o.want {
		return nil
	}
	err := fmt.Errorf("rank %d: corrupt accumulator %g, want %g", rank, acc, o.want)
	o.mu.Lock()
	o.bad = errors.Join(o.bad, err)
	o.mu.Unlock()
	return err
}

// result is what one run reports back.
type result struct {
	stats   swaprt.RunStats
	swaps   int           // swap participations, summed over ranks
	wall    time.Duration // wall time of the application run
	hub     *swaprt.TelemetryHub
	lens    *policylens.Lens
	corrupt error // the oracle's verdict; nil when every active lane is exact
}

// run executes one live run on a fresh world. The fault plan, the
// observers, the manager decision chain and the accumulator application
// are assembled here and nowhere else. injections is the run's load
// schedule; logf receives its log lines.
func run(o *options, injections []injection, logf func(string, ...any)) (result, error) {
	tm := o.tm
	inj := &injector{factor: make([]float64, o.ranks)}
	for i := range inj.factor {
		inj.factor[i] = 1
	}
	apply := func(i injection) {
		logf("inject: host of rank %d now %gx slower", i.Rank, i.Factor)
		inj.apply(i)
	}
	var byIter []injection
	for _, i := range injections {
		if i.AfterIter > 0 {
			byIter = append(byIter, i)
			continue
		}
		i := i
		t := tm.AfterFunc(i.Delay, func() { apply(i) })
		defer t.Stop()
	}

	var plan *fault.Plan
	if o.chaos != "" {
		var err error
		if plan, err = fault.Parse(o.chaos); err != nil {
			return result{}, err
		}
		logf("chaos: fault plan armed: %s", o.chaos)
	}
	worldCfg := mpi.Config{Size: o.ranks, TCP: o.tcp, Clock: tm, Causal: o.obs.Causal}
	if plan != nil {
		// Only a non-nil plan goes into the interface field: a typed nil
		// would arm an injector that panics on first use.
		worldCfg.Fault = plan
	}
	world, err := mpi.NewWorldWithConfig(worldCfg)
	if err != nil {
		return result{}, err
	}
	defer world.Close()

	now := clock.Seconds(tm) // one origin for trace and telemetry timestamps
	tracer, err := o.obs.Tracer(o.ranks, obs.WithClock(now))
	if err != nil {
		return result{}, err
	}
	var hub *swaprt.TelemetryHub
	if o.obs.Telemetry {
		hub = swaprt.NewTelemetryHub(now)
		world.SetSendLatencySampling(true)
	}
	if cz := world.Causal(); cz != nil {
		logf("causal: Lamport clocks armed on %d ranks", o.ranks)
		hub.SetCausalProbe(func() swaprt.CausalTelemetry {
			return swaprt.CausalTelemetry{Enabled: true, MaxClock: cz.MaxClock(), Sends: cz.Sends()}
		})
	}
	if rec := o.obs.Recorder; rec != nil {
		logf("flight: recorder armed, dumps go to %s", o.obs.FlightDir)
		hub.SetFlightProbe(func() swaprt.FlightTelemetry {
			st := rec.Status()
			return swaprt.FlightTelemetry{Enabled: true, Buffered: st.Buffered,
				Observed: st.Observed, Dumps: st.Dumps, LastDump: st.LastDump, Dir: st.Dir}
		})
	}
	var lens *policylens.Lens
	if o.obs.Lens {
		lens = policylens.New(policylens.Config{
			Tolerance: o.obs.LensTolerance,
			Tracer:    tracer,
			Registry:  world.Metrics(),
		})
		logf("lens: policy audit armed (shadow greedy/safe/friendly)")
		hub.SetLensProbe(lens.Report)
	}

	cfg := swaprt.Config{
		Active:          o.active,
		Policy:          o.policy,
		Probe:           func(rank int) float64 { return 1000 / inj.slowdown(rank) },
		Time:            tm,
		Logf:            logf,
		HandlerInterval: o.handler,
		TransferTimeout: o.transfer,
		Tracer:          tracer,
		Telemetry:       hub,
		Lens:            lens,
	}
	// A fault plan with mgrkill/mgrrestart rules needs a manager that can
	// actually die and recover; give it a durable store home if the user
	// did not name one.
	storeDir := o.mgrStore
	if storeDir == "" && plan != nil && plan.HasManagerKills() {
		if storeDir, err = os.MkdirTemp("", "swapmgr-store-*"); err != nil {
			return result{}, err
		}
		defer os.RemoveAll(storeDir)
		logf("mgr-store: chaos plan kills the manager; using temporary store %s", storeDir)
	}

	// Every manager call, to the supervised incarnation of the moment or
	// to the stand-in, passes the fault plan's outage gate.
	gate := func(d swaprt.Decider) swaprt.Decider {
		if plan == nil {
			return d
		}
		return swaprt.GatedDecider{Inner: d, Gate: plan.ManagerCall}
	}
	var primary swaprt.Decider
	var resolver func() (swaprt.Decider, error)
	var onCircuit func(transition, reason string)
	if storeDir != "" {
		// Crash-restartable manager: a supervisor runs WAL-backed swapmgr
		// incarnations over the store directory, fenced by a leader lease
		// on the virtual clock. The fault plan's kill rules crash it for
		// real; the resolver below re-finds the recovered leader.
		sup, err := swaprt.StartManagerSupervisor(swaprt.SupervisorConfig{
			Dir: storeDir, Policy: o.policy, LeaseTTL: o.mgrTTL,
			Clock: tm, Tracer: tracer, Logf: logf,
		})
		if err != nil {
			return result{}, err
		}
		defer sup.Close()
		for i := 0; sup.Addr() == "" && i < 1000; i++ {
			tm.Sleep(2 * time.Millisecond)
		}
		if sup.Addr() == "" {
			return result{}, fmt.Errorf("manager supervisor never started serving")
		}
		logf("mgr-store: durable swapmgr on %s (store %s, lease %s)", sup.Addr(), storeDir, o.mgrTTL)
		if plan != nil {
			plan.SetManagerKiller(sup.Kill)
		}
		resolver = func() (swaprt.Decider, error) {
			d, err := sup.Resolve()
			if err != nil {
				return nil, err
			}
			return gate(d), nil
		}
		onCircuit = sup.RecordCircuit
		// The lease is renewed in virtual time: at high -accel it spans only
		// a few wall milliseconds, so a cold-start scheduler hiccup can catch
		// it lapsed an instant before the renewal ticker lands. Retry briefly
		// rather than failing the run on startup jitter.
		for i := 0; ; i++ {
			if primary, err = resolver(); err == nil {
				break
			}
			if i >= 200 {
				return result{}, err
			}
			tm.Sleep(5 * time.Millisecond)
		}
	} else if o.manager != "" {
		primary = swaprt.RemoteDecider{Addr: o.manager}
		logf("using remote swap manager at %s", o.manager)
	} else if plan != nil {
		// Chaos without a daemon still needs a primary the plan can take
		// down, so local decisions stand in for the manager.
		primary = swaprt.NewLocalDecider(o.policy)
	}
	if primary != nil {
		if resolver == nil {
			primary = gate(primary)
		}
		resilient := &swaprt.ResilientDecider{
			Primary:       primary,
			Fallback:      swaprt.NewLocalDecider(o.policy),
			Resolver:      resolver,
			OnCircuit:     onCircuit,
			MaxAttempts:   2,
			FailThreshold: 2,
			ProbeInterval: 50 * time.Millisecond,
			Clock:         tm,
			Tracer:        tracer,
			Logf:          logf,
			Metrics:       world.Metrics(),
		}
		defer resilient.Close()
		cfg.Decider = resilient
		hub.SetCircuitProbe(resilient.State)
	}

	if o.debug != "" {
		dln, err := net.Listen("tcp", o.debug)
		if err != nil {
			return result{}, err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.PromHandler(world.Metrics()))
		mux.Handle("/telemetry", swaprt.TelemetryHandler(hub))
		mux.Handle("/policy", policylens.Handler(lens))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		go func() {
			if err := http.Serve(dln, mux); err != nil {
				logf("debug endpoint: %v", err)
			}
		}()
		logf("debug endpoint on http://%s (/metrics /telemetry /policy /healthz)", dln.Addr())
	}

	orc := &oracle{want: float64(o.iters * o.active)}
	var mu sync.Mutex
	swaps := 0
	start := time.Now()
	stats, err := swaprt.RunWithStats(world, cfg, func(s *swaprt.Session) error {
		iter := 0
		acc := 0.0
		pad := make([]byte, o.state)
		s.Register("iter", &iter)
		s.Register("acc", &acc)
		s.Register("pad", &pad)
		for !s.Done() && iter < o.iters {
			if s.Active() {
				for _, i := range byIter {
					if i.Rank == s.Rank() && i.AfterIter == iter {
						apply(i)
					}
				}
				busyWait(tm, time.Duration(o.workMS*inj.slowdown(s.Rank())*float64(time.Millisecond)))
				v, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1)
				if err != nil {
					return err
				}
				acc += v
				iter++
				if plan != nil {
					plan.Advance(s.Rank())
				}
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		mu.Lock()
		swaps += s.Swaps()
		mu.Unlock()
		if s.Active() {
			verdict := orc.check(s.Rank(), acc)
			if s.Comm().Rank() == 0 {
				status := "OK"
				if verdict != nil {
					status = fmt.Sprintf("CORRUPT (acc=%g want=%g)", acc, orc.want)
				}
				logf("finished %d iterations on rank %d: %s", iter, s.Rank(), status)
			}
		}
		return nil
	})
	wall := time.Since(start)
	if err != nil {
		return result{}, err
	}
	if err := o.obs.Write(tracer, logf); err != nil {
		return result{}, err
	}
	if err := o.obs.WriteMetrics(world.Metrics(), logf); err != nil {
		return result{}, err
	}
	return result{stats: stats, swaps: swaps, wall: wall, hub: hub, lens: lens, corrupt: orc.bad}, nil
}

// busyWait spins for d of the injected clock's time: on a scaled clock
// the simulated compute compresses with everything else, keeping the
// work-to-timeout ratios of an accelerated run faithful to real time.
func busyWait(clk clock.Clock, d time.Duration) {
	end := clk.Now().Add(d)
	x := 1.0
	for clk.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-12
		}
	}
	_ = x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "swaprun:", err)
	os.Exit(1)
}
