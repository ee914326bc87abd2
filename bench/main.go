// Command bench is the repository's benchmark: eight fixed workloads run as
// a closed loop (users = shards = 4; each user issues its next
// step only after the previous verdict), end-to-end metrics from an
// untraced pass, per-layer metrics from a traced pass and direct-call
// probes, and a correctness gate on every workload. See README.md.
//
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1   one pass, result on the last line
//	bash bench/run.sh -seed N                                     every workload, both passes, result file
//	bash bench/run.sh compare A.json[,A2.json…] B.json[,B2.json…]   the regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// multiprogramming is the fixed multiprogramming level: users = shards = 4
// on every box. With fewer CPUs than users the CPUs never idle between
// requests, which on the 2-vCPU reference box is what keeps a guest's
// halt/wake latency regimes out of the numbers.
const multiprogramming = 4

// Rounds per segment of a full run (passSegments segments per pass): 24
// untraced rounds in all, and 6 untraced + 9 traced in the traced pass.
const (
	untracedSegmentRounds = 8
	tracedSegmentRounds   = 5
)

func main() {
	workloadName := flag.String("workload", "", "run one workload and print the driver's result line (default: all, full report)")
	seed := flag.Int64("seed", 1, "seed of the workload generators and sim.Config.Seed")
	seconds := flag.Float64("seconds", 10, "with -workload: how long the pass measures")
	trace := flag.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	outDir := flag.String("out", "bench/out", "directory for trace files, WAL scratch and the result file")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		os.Exit(compareMain(flag.Args()[1:]))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	e := &env{seed: *seed, users: multiprogramming, verifyJobs: defaultVerifyJobs, segments: passSegments, outDir: *outDir}
	var (
		ok  bool
		err error
	)
	if *workloadName != "" {
		ok, err = runOne(e, *workloadName, *trace == 1, *seconds)
	} else {
		ok, err = runAll(e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// driverLine is the one JSON object the benchmark contract asks for on the
// last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// onePass is the driver's unit of work: one pass over one workload. The
// untraced pass yields every end-to-end metric; the traced pass every
// per-layer metric, the probes included, with 0 where the workload has no
// such layer; probes holds the probe results the traced line includes.
func onePass(e *env, w *spec, traced bool, b budget, probes map[string]float64) (driverLine, map[string]value, []string, error) {
	p, err := runPass(w, e, traced, b)
	if err != nil {
		return driverLine{}, nil, nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		for name, ns := range probes {
			p.samples.add(name, ns)
		}
	}
	p.samples.add("failed_ratio", float64(p.failed)/float64(p.attempted))
	vals := p.samples.values(defs)
	line := driverLine{Correct: len(p.violations) == 0, Attempted: p.attempted, Failed: p.failed,
		Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = driverValue{Value: vals[d.name].Value, Unit: d.unit}
	}
	return line, vals, p.violations, nil
}

func runOne(e *env, name string, traced bool, seconds float64) (bool, error) {
	w, err := specByName(name)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	var probes map[string]float64
	if traced {
		defs = perLayer
		// Per-layer metrics carry no bound, and a traced segment sets up
		// twice (twin instances): one segment keeps the driver's traced
		// runs within its time budget.
		e.segments = 1
		if probes, err = runProbes(e.freshDir("probe")); err != nil {
			return false, err
		}
	}
	line, vals, violations, err := onePass(e, w, traced, budget{seconds: seconds / float64(e.segments)}, probes)
	if err != nil {
		return false, err
	}
	printMetrics(w.name, defs, vals)
	for _, v := range violations {
		fmt.Printf("VIOLATION %s: %s\n", w.name, v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return line.Correct, nil
}

func printMetrics(workload string, defs []metricDef, vals map[string]value) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Printf("%-22s %-36s %14.4f %-6s q1 %.4f q3 %.4f n %d\n", workload, d.name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
		}
	}
}

// result is the typed result file of a full run: numbers with units, the
// configuration of every workload, and the environment they ran in.
type result struct {
	Schema    string           `json:"schema"`
	Env       envBlock         `json:"env"`
	Workloads []workloadResult `json:"workloads"`
	// Probes are workload-independent and run once.
	Probes map[string]value `json:"probes"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

type envBlock struct {
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

type workloadResult struct {
	Name       string           `json:"name"`
	Why        string           `json:"why"`
	Config     configBlock      `json:"config"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Violations []string         `json:"violations,omitempty"`
	EndToEnd   map[string]value `json:"end_to_end"`
	PerLayer   map[string]value `json:"per_layer"`
}

type configBlock struct {
	Scheduler    string `json:"scheduler"`
	Backend      string `json:"backend"`
	Oracle       string `json:"oracle"`
	Users        int    `json:"users"`
	Shards       int    `json:"shards"`
	RoundJobs    int    `json:"round_jobs"`
	Batch        int    `json:"batch"`
	Rounds       int    `json:"rounds"`
	TracedRounds int    `json:"traced_pass_rounds"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll is the full run: every workload, untraced and traced pass, the
// probes once, every metric printed by name with its unit, and the typed
// result written to <out>/result-seed<N>.json. The order is segment-major:
// each workload's rounds are spread over the whole run, so a slow stretch
// of the box costs every workload a little and not one workload a lot.
func runAll(e *env) (bool, error) {
	res := result{
		Schema: "optcc-bench/v2",
		Env: envBlock{GoVersion: runtime.Version(), CPUModel: cpuModel(), NProc: runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), GitCommit: gitCommit(), Seed: e.seed},
	}
	plain, traced := make([]passResult, len(specs)), make([]passResult, len(specs))
	for i := range specs {
		plain[i].samples, traced[i].samples = samples{}, samples{}
	}
	for seg := 0; seg < e.segments; seg++ {
		for i := range specs {
			if err := plain[i].segment(&specs[i], e, false, budget{rounds: untracedSegmentRounds}); err != nil {
				return false, err
			}
			if err := traced[i].segment(&specs[i], e, true, budget{rounds: tracedSegmentRounds}); err != nil {
				return false, err
			}
		}
	}
	allCorrect := true
	for i := range specs {
		w, plain, traced := &specs[i], &plain[i], &traced[i]
		if err := plain.finish(w, e, false); err != nil {
			return false, err
		}
		if err := traced.finish(w, e, true); err != nil {
			return false, err
		}
		attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
		traced.samples.add("failed_ratio", float64(failed)/float64(attempted))
		wr := workloadResult{
			Name: w.name, Why: w.why,
			Config: configBlock{Scheduler: w.schedName, Backend: w.backendName, Oracle: w.oracle.String(),
				Users: e.users, Shards: e.users, RoundJobs: w.roundJobs, Batch: w.batch,
				Rounds: plain.rounds, TracedRounds: traced.rounds},
			Attempted: attempted, Failed: failed,
			Violations: append(plain.violations, traced.violations...),
			EndToEnd:   plain.samples.values(endToEnd),
			PerLayer:   traced.samples.values(perLayer),
		}
		// The metrics every untraced round yields (abort_ratio … recovery_ms)
		// come from the untraced pass, which has four times the rounds.
		for name, v := range plain.samples.values(perLayer) {
			wr.PerLayer[name] = v
		}
		wr.Correct = len(wr.Violations) == 0
		allCorrect = allCorrect && wr.Correct
		printMetrics(w.name, endToEnd, wr.EndToEnd)
		printMetrics(w.name, perLayer, wr.PerLayer)
		for _, v := range wr.Violations {
			fmt.Printf("VIOLATION %s: %s\n", w.name, v)
		}
		res.Workloads = append(res.Workloads, wr)
	}
	probes, err := runProbes(e.freshDir("probe"))
	if err != nil {
		return false, err
	}
	ps := samples{}
	for name, ns := range probes {
		ps.add(name, ns)
	}
	res.Probes = ps.values(perLayer)
	printMetrics("probe", perLayer, res.Probes)

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(e.outDir, fmt.Sprintf("result-seed%d.json", e.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("result: %s  correct: %v  \"claim\": null\n", path, allCorrect)
	return allCorrect, nil
}
