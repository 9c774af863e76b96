package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.sha256 from the current code")

type goldenCase struct {
	name string
	net  func() *nnet.Net
	cfg  Config
}

// goldenCases is the result-equivalence battery: every manager ×
// AlexNet/ResNet50/VGG16 × two batches, traced so the span names the
// runtime builds (offload, fetch, replay, evict) enter the hash. The
// upper batches push most managers into swapping, recomputation or
// OOM on a K40c. One extra case reaches the span no manager row does:
// evictions under a shrunk pool.
func goldenCases() []goldenCase {
	nets := []struct {
		name    string
		build   nnet.BuilderFunc
		batches [2]int
	}{
		{"AlexNet", nnet.AlexNet, [2]int{128, 1024}},
		{"ResNet50", nnet.ByName("ResNet50"), [2]int{32, 128}},
		{"VGG16", nnet.VGG16, [2]int{32, 128}},
	}
	var out []goldenCase
	for _, mgr := range Names() {
		for _, n := range nets {
			for _, b := range n.batches {
				build, b := n.build, b
				cfg := mustManager(mgr)
				cfg.CollectTrace = true
				out = append(out, goldenCase{
					name: fmt.Sprintf("%s/%s/%d", mgr, n.name, b),
					net:  func() *nnet.Net { return build(b) },
					cfg:  cfg,
				})
			}
		}
	}
	evict := SuperNeurons(hw.TeslaK40c)
	evict.PoolBytes, evict.CollectTrace = 2200*hw.MiB, true
	out = append(out,
		goldenCase{"superneurons-2200MiB/AlexNet/300", func() *nnet.Net { return nnet.AlexNet(300) }, evict})
	return out
}

// TestResultsMatchGolden hashes json.Marshal of every battery case's
// *Result (or its error) and compares each digest against
// testdata/results.sha256. Any change to what a run computes, records
// or names shows up here; refactors and optimisations must leave the
// file untouched. Regenerate with `go test ./internal/core -run
// ResultsMatchGolden -update` only for an intended behaviour change.
func TestResultsMatchGolden(t *testing.T) {
	path := filepath.Join("testdata", "results.sha256")
	got := make(map[string]string)
	var lines []string
	for _, c := range goldenCases() {
		var blob []byte
		r, err := Run(c.net(), c.cfg)
		if err != nil {
			blob = []byte("error: " + err.Error())
		} else if blob, err = json.Marshal(r); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = fmt.Sprintf("%x", sha256.Sum256(blob))
		lines = append(lines, c.name+" "+got[c.name])
	}
	if *updateGolden {
		data := "# case sha256 of json.Marshal(*core.Result), or of \"error: \"+err\n" + strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok && !strings.HasPrefix(name, "#") {
			want[name] = sum
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, battery has %d", len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: result sha256 %s, golden %q", name, sum, want[name])
		}
	}
}
