package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// scale sizes the workloads. fullScale is what the benchmark runs; the
// smoke test runs the same code at toy scale.
type scale struct {
	// name selects the scale in a cold-start child process.
	name string
	// denseJobs is the submission count of one serve-dense episode.
	denseJobs int
	// sparseSubmitHz and sparseReadHz are serve-sparse's Poisson rates.
	sparseSubmitHz, sparseReadHz float64
	denseTenants, sparseTenants  int
	// maxLatenessP99 fails a serve-sparse run whose generator fell
	// behind its schedule: such a run measures the harness, not
	// snserved. At toy scale the p99 is about the largest of a few dozen
	// samples, taken beside other test processes, so it only catches a
	// generator that stopped.
	maxLatenessP99 time.Duration
	// setupSamples is how many cold starts set-up time is the median
	// of; recoverSamples the same for restart recovery.
	setupSamples, recoverSamples int
	// minPasses bounds in-process workloads from below when a pass is
	// longer than the window.
	minPasses int
	// scenarios and experiments select the sched-replay traces and the
	// sim-eval experiments.
	scenarios, experiments []string
	// traceSparseEvents is the prefix of the serve-sparse schedule the
	// traced pass replays in process.
	traceSparseEvents int
	// probes enables the simulator layer probes of the traced pass.
	probes bool
}

var fullScale = scale{
	name:           "full",
	denseJobs:      300,
	sparseSubmitHz: 240, sparseReadHz: 60,
	maxLatenessP99: 5 * time.Millisecond,
	denseTenants:   8, sparseTenants: 16,
	setupSamples: 7, recoverSamples: 3,
	minPasses:         3,
	scenarios:         []string{"gang", "cotenant", "faults"},
	experiments:       allExperiments(),
	traceSparseEvents: 2500,
	probes:            true,
}

// toyScale runs every code path in a few seconds; the smoke test uses
// it.
var toyScale = scale{
	name:           "toy",
	denseJobs:      20,
	sparseSubmitHz: 120, sparseReadHz: 30,
	maxLatenessP99: 100 * time.Millisecond,
	denseTenants:   3, sparseTenants: 4,
	setupSamples: 1, recoverSamples: 1,
	minPasses:         2,
	scenarios:         []string{"cotenant", "faults"},
	experiments:       []string{"table1", "table3", "fig8", "fig10", "fig12"},
	traceSparseEvents: 60,
}

var scales = map[string]scale{"full": fullScale, "toy": toyScale}

// env is the context of one run: the checkout, a scratch directory
// removed when the run ends, the daemon binary built from the checkout,
// and the speedometer whose clock every sample and span of the run uses.
type env struct {
	o      options
	work   string
	server string
	speed  *speedometer
}

func newEnv(o options) (*env, error) {
	scratch := o.scratch
	if scratch == "" {
		scratch = filepath.Join(o.root, ".bench_build")
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return nil, err
	}
	return &env{o: o, work: work, speed: newSpeedometer(time.Now())}, nil
}

func (e *env) close() { _ = os.RemoveAll(e.work) }

// dir returns a fresh directory under the run's scratch space.
func (e *env) dir(name string) (string, error) {
	return os.MkdirTemp(e.work, name+"-")
}

// serverBinary builds cmd/snserved from the checkout into the run's
// scratch directory, once per run.
func (e *env) serverBinary() (string, error) {
	if e.server != "" {
		return e.server, nil
	}
	bin := filepath.Join(e.work, "snserved")
	if err := goBuild(e.o.root, bin, "./cmd/snserved"); err != nil {
		return "", err
	}
	e.server = bin
	return bin, nil
}

// goBuild compiles one package of the module rooted at root.
func goBuild(root, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s in %s: %v\n%s", pkg, root, err, stderr.Bytes())
	}
	return nil
}

// coldStarts times sc.setupSamples fresh processes of this program, each
// preparing the workload's inputs and completing its first pass: the
// set-up cost a user pays before the first result, including any work a
// later change moves out of the timed passes.
func coldStarts(e *env, sc scale) ([]opSample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]opSample, 0, sc.setupSamples)
	for range sc.setupSamples {
		e.speed.mark()
		cmd := exec.Command(self, "-cold-start", sc.name, "-root", e.o.root, "-workload", e.o.workload,
			"-seed", fmt.Sprint(e.o.seed))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		s, err := e.speed.timeOp(cmd.Run)
		if err != nil {
			return nil, fmt.Errorf("cold start: %v\n%s", err, stderr.Bytes())
		}
		out = append(out, s)
	}
	e.speed.mark()
	return out, nil
}

// coldStartMain is the body of one cold-start process.
func coldStartMain(o options) error {
	sc, ok := scales[o.coldStart]
	if !ok {
		return fmt.Errorf("unknown scale %q", o.coldStart)
	}
	switch o.workload {
	case "sched-replay":
		variants, err := schedVariants(o.seed, sc.scenarios)
		if err != nil {
			return err
		}
		_, err = replayPass(variants[0], nil)
		return err
	case "sim-eval":
		simPass(sc.experiments, nil)
		return nil
	}
	return fmt.Errorf("workload %s has no in-process cold start", o.workload)
}
