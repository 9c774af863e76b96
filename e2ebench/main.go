// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of four workloads against the code of the checkout it is run from:
//
//	serve-dense   a freshly built snserved, durable acks, closed loop
//	serve-sparse  the same daemon under open-loop Poisson submits + reads
//	sched-replay  the bundled gang/cotenant/faults traces under 4 policies
//	sim-eval      every table and figure sntables regenerates
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it
// runs a separate traced pass that times calls into each layer's public
// functions and reports the per-layer metrics. Both print a table and,
// as the last line, one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
//
// and write a summary (or span) file under -out. Every reported time is
// scaled to a reference machine speed (see speed.go). The explain
// subcommand splits each end-to-end mean into layer rows plus a
// remainder:
//
//	e2ebench explain -spans OUT/spans.json OUT/summary.serve-dense.json ...
//
// run.sh builds this program and passes -root; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	root     string
	out      string
	scratch  string
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	// coldStart, when set, makes this process one set-up sample of an
	// in-process workload at the named scale: prepare inputs, run one
	// pass, exit.
	coldStart string
}

// metric is one reported value as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload's end-to-end measurement.
type workloadFunc func(env *env, sc scale) (*report, error)

var workloads = map[string]workloadFunc{
	"serve-dense":  runServeDense,
	"serve-sparse": runServeSparse,
	"sched-replay": runSchedReplay,
	"sim-eval":     runSimEval,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("e2ebench: ")
	var o options
	var seconds float64
	flag.StringVar(&o.root, "root", ".", "repository checkout to build and measure")
	flag.StringVar(&o.out, "out", "", "directory for the summary and span files (default ROOT/.bench_build/results)")
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 0, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 15, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	flag.StringVar(&o.coldStart, "cold-start", "", "internal: run one cold set-up of an in-process workload at the named scale")
	flag.Parse()

	if flag.NArg() > 0 && flag.Arg(0) == "explain" {
		if err := explainMain(flag.Args()[1:], os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q (the only subcommand is explain)", flag.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		log.Fatalf("-trace must be 0 or 1, got %d", *trace)
	}
	if seconds <= 0 {
		log.Fatalf("-seconds must be positive, got %v", seconds)
	}
	o.traced = *trace == 1
	o.window = time.Duration(seconds * float64(time.Second))
	if _, ok := workloads[o.workload]; !ok {
		log.Fatalf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		log.Fatal(err)
	}
	o.root = root
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "results")
	}

	if o.coldStart != "" {
		if err := coldStartMain(o); err != nil {
			log.Fatal(err)
		}
		return
	}
	res, err := run(o, fullScale, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run, prints its table to w and writes its
// summary or span file; the caller prints the result line.
func run(o options, sc scale, w io.Writer) (*result, error) {
	e, err := newEnv(o)
	if err != nil {
		return nil, err
	}
	defer e.close()
	var rep *report
	if o.traced {
		rep, err = runTraced(e, sc)
	} else {
		rep, err = workloads[o.workload](e, sc)
	}
	if err != nil {
		return nil, err
	}
	rep.Env = hygiene(o)
	rep.Speed = e.speed.marks
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	name := "summary." + o.workload + ".json"
	if o.traced {
		name = "spans.json"
	}
	if err := writeJSON(filepath.Join(o.out, name), rep, !o.traced); err != nil {
		return nil, err
	}
	rep.print(w)
	res := &result{
		Correct:   len(rep.Failures) == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   map[string]metric{},
	}
	for name, m := range rep.Metrics {
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}

// writeJSON writes v to path, indented unless it holds many spans.
func writeJSON(path string, v any, indent bool) error {
	marshal := json.Marshal
	if indent {
		marshal = func(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }
	}
	data, err := marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
