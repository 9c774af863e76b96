package workload

import (
	"testing"

	"repro/internal/nnet"
)

func TestFig14SweepsAreSortedAndCovered(t *testing.T) {
	for name, batches := range Fig14Batches {
		if nnet.ByName(name) == nil {
			t.Errorf("sweep for unknown network %q", name)
		}
		for i := 1; i < len(batches); i++ {
			if batches[i] <= batches[i-1] {
				t.Errorf("%s: batches not increasing: %v", name, batches)
			}
		}
	}
	for name := range Table5SearchLimit {
		if nnet.ByName(name) == nil {
			t.Errorf("search limit for unknown network %q", name)
		}
	}
}
