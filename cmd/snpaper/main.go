// Command snpaper reproduces the paper's evaluation on the simulated
// substrate. Its three subcommands tell one story: run trains one
// network under one memory policy and prints its step-wise profile
// (Figs 8 and 10), tables regenerates every table and figure next to
// the paper's published numbers, and sweep runs one capacity search
// (going deeper, Table 4, or going wider, Table 5) for every framework.
//
// Usage:
//
//	snpaper run -net ResNet50 -batch 384 [-device k40c|titanxp]
//	      [-framework SuperNeurons|Caffe|MXNet|Torch|TensorFlow]
//	      [-pool-gib 12] [-iterations 1] [-profile] [-diagram]
//	      [-csv out.csv] [-trace out.json]
//	snpaper tables [-only table4,fig10]
//	snpaper sweep -mode deeper [-batch 16] [-max-n3 2600]
//	snpaper sweep -mode wider  [-net ResNet50] [-limit 2048]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	superneurons "repro"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/nnet"
	"repro/internal/trace"
)

// A command declares its flags on fs and returns the action that runs
// once they are parsed.
type command struct {
	name, doc string
	flags     func(fs *flag.FlagSet) func(w io.Writer) error
}

var commands = []command{
	{"run", "simulate training one network under one memory policy", runFlags},
	{"tables", "regenerate every table and figure of the evaluation", tablesFlags},
	{"sweep", "run the going-deeper or going-wider capacity search", sweepFlags},
}

func main() {
	os.Exit(snpaper(os.Args[1:], os.Stdout, os.Stderr))
}

// snpaper runs the subcommand named by args[0] and returns the exit
// status: 0 on success, 1 when the command fails, 2 on a usage error.
func snpaper(args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || args[0] != c.name {
			continue
		}
		fs := flag.NewFlagSet("snpaper "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		action := c.flags(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2
		}
		if err := action(stdout); err != nil {
			fmt.Fprintf(stderr, "snpaper %s: %v\n", c.name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintln(stderr, "usage: snpaper <command> [flags]")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-7s %s\n", c.name, c.doc)
	}
	return 2
}

func runFlags(fs *flag.FlagSet) func(io.Writer) error {
	var (
		netName   = fs.String("net", "AlexNet", "network: "+strings.Join(superneurons.Networks(), ", "))
		batch     = fs.Int("batch", 128, "batch size")
		device    = fs.String("device", "k40c", "device profile: k40c or titanxp")
		framework = fs.String("framework", "SuperNeurons", "memory policy: SuperNeurons, Caffe, MXNet, Torch, TensorFlow")
		poolGiB   = fs.Float64("pool-gib", 0, "override GPU pool size in GiB (0 = device default)")
		iters     = fs.Int("iterations", 1, "training iterations to simulate")
		profile   = fs.Bool("profile", false, "print the per-step memory profile")
		csvPath   = fs.String("csv", "", "write the per-step profile as CSV to this file")
		tracePath = fs.String("trace", "", "write a Chrome trace (chrome://tracing) of the timeline to this file")
		diagram   = fs.Bool("diagram", false, "print the execution route with Fig.6-style fwd/bwd step numbering")
	)
	return func(w io.Writer) error {
		dev, err := hw.DeviceByName(*device)
		if err != nil {
			return err
		}
		fw, ok := superneurons.FrameworkByName(*framework)
		if !ok {
			return fmt.Errorf("unknown framework %q", *framework)
		}
		cfg, err := fw.Config(dev)
		if err != nil {
			return err
		}
		if *poolGiB > 0 {
			cfg.PoolBytes = int64(*poolGiB * float64(hw.GiB))
		}
		cfg.Iterations = *iters
		cfg.CollectTrace = *tracePath != ""

		net, err := superneurons.Build(*netName, *batch)
		if err != nil {
			return err
		}
		if *diagram {
			fmt.Fprintf(w, "execution route of %s (forward/backward step numbering, Alg. 1)\n\n", net.Name)
			fmt.Fprint(w, net.RouteDiagram())
			fmt.Fprintln(w)
		}
		res, err := superneurons.Run(net, cfg)
		if err != nil {
			return err
		}

		fmt.Fprintf(w, "framework: %s on %s\n", fw.Name, dev.Name)
		fmt.Fprint(w, superneurons.Summary(res))
		fmt.Fprintf(w, "  hottest steps    %s\n", strings.Join(superneurons.PeakSteps(res, 3), "; "))

		if *tracePath != "" {
			if err := writeFile(*tracePath, func(f io.Writer) error { return trace.WriteChrome(f, res.Trace) }); err != nil {
				return err
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, trace.Summary(res.Trace))
			fmt.Fprintf(w, "chrome trace written to %s\n", *tracePath)
		}

		if !*profile && *csvPath == "" {
			return nil
		}
		t := metrics.NewTable("per-step profile",
			"step", "label", "resident MiB", "tensors", "workspace MiB", "algo", "time")
		for _, s := range res.Steps {
			t.Add(fmt.Sprint(s.Index), s.Label, metrics.MiB(s.ResidentBytes),
				fmt.Sprint(s.LiveTensors), metrics.MiB(s.WorkspaceBytes),
				s.Algo.String(), s.Time.String())
		}
		if *profile {
			fmt.Fprintln(w)
			fmt.Fprint(w, t.String())
		}
		if *csvPath != "" {
			if err := writeFile(*csvPath, t.CSV); err != nil {
				return err
			}
			fmt.Fprintf(w, "profile written to %s\n", *csvPath)
		}
		return nil
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func tablesFlags(fs *flag.FlagSet) func(io.Writer) error {
	only := fs.String("only", "", "comma-separated subset: table1..table5, fig2, fig8, fig10..fig14")
	return func(w io.Writer) error {
		want := map[string]bool{}
		if *only != "" {
			for _, k := range strings.Split(*only, ",") {
				want[strings.TrimSpace(strings.ToLower(k))] = true
			}
		}
		sel := func(k string) bool { return len(want) == 0 || want[k] }
		emit := func(key string, fn func() string) {
			if !sel(key) {
				return
			}
			start := time.Now()
			fmt.Fprintln(w, fn())
			fmt.Fprintf(w, "[%s regenerated in %v]\n\n", key, time.Since(start).Round(time.Millisecond))
		}

		emit("table1", func() string { return experiments.Table1().String() })
		emit("table2", func() string { return experiments.Table2().String() })
		emit("table3", func() string { return experiments.Table3().String() })
		emit("table4", func() string { return experiments.Table4().String() })
		var t5 map[string]map[string]int
		if sel("table5") || sel("fig13") {
			t5 = experiments.Table5Data()
		}
		emit("table5", func() string { return experiments.Table5(t5).String() })
		emit("fig2", func() string { return experiments.Fig2().String() })
		emit("fig8", func() string {
			a, b := experiments.Fig8()
			return a.String() + "\n" + b.String()
		})
		emit("fig10", func() string { return experiments.Fig10(experiments.Fig10Runs()) })
		emit("fig11", func() string { return experiments.Fig11().String() })
		emit("fig12", func() string { return experiments.Fig12() })
		emit("fig13", func() string { return experiments.Fig13(t5).String() })
		emit("fig14", func() string { return experiments.Fig14() })
		return nil
	}
}

func sweepFlags(fs *flag.FlagSet) func(io.Writer) error {
	var (
		mode  = fs.String("mode", "deeper", "deeper (Table 4) or wider (Table 5)")
		batch = fs.Int("batch", 16, "batch size for the depth sweep")
		maxN3 = fs.Int("max-n3", 2600, "upper bound of the stage-3 repeat count")
		net   = fs.String("net", "ResNet50", "network for the batch sweep")
		limit = fs.Int("limit", 2048, "upper bound of the batch search")
	)
	return func(w io.Writer) error {
		dev := hw.TeslaK40c
		frameworks := superneurons.Frameworks()
		var t *metrics.Table
		switch *mode {
		case "deeper":
			rows, err := experiments.MaxDepths(*batch, *maxN3)
			if err != nil {
				return err
			}
			t = metrics.NewTable(
				fmt.Sprintf("deepest trainable ResNet at batch %d on %s", *batch, dev.Name),
				"framework", "depth", "n3", "basic layers")
			for i, f := range frameworks {
				layers := 0
				if rows[i].N3 > 0 {
					layers = nnet.ResNetTable4(1, rows[i].N3).BasicLayers()
				}
				t.Add(f.Name, fmt.Sprint(rows[i].Depth), fmt.Sprint(rows[i].N3), fmt.Sprint(layers))
			}
		case "wider":
			rows, err := experiments.MaxBatches([]string{*net}, map[string]int{*net: *limit})
			if err != nil {
				return err
			}
			t = metrics.NewTable(
				fmt.Sprintf("largest trainable batch for %s on %s", *net, dev.Name),
				"framework", "batch")
			for i, f := range frameworks {
				t.Add(f.Name, fmt.Sprint(rows[0][i]))
			}
		default:
			return fmt.Errorf("unknown mode %q", *mode)
		}
		fmt.Fprint(w, t.String())
		return nil
	}
}
