package workload

import (
	"testing"
	"time"

	"htmtree/internal/abtree"
	"htmtree/internal/bst"
	"htmtree/internal/engine"
	"htmtree/internal/xrand"
)

func TestPrefillHalfFull(t *testing.T) {
	t.Parallel()
	tr := bst.New(bst.Config{Algorithm: engine.AlgThreePath})
	cfg := Config{Threads: 4, KeyRange: 20000, Seed: 42}
	sum, count := Prefill(tr, cfg)
	gotSum, gotCount := tr.KeySum()
	if gotSum != sum || gotCount != count {
		t.Fatalf("prefill bookkeeping mismatch: tree (%d,%d) vs returned (%d,%d)",
			gotSum, gotCount, sum, count)
	}
	// Binomial(20000, 1/2): far outside [9000,11000] is astronomically
	// unlikely.
	if count < 9000 || count > 11000 {
		t.Fatalf("prefill count = %d, want about half of 20000", count)
	}
}

func TestRQLenDistribution(t *testing.T) {
	t.Parallel()
	rng := xrand.New(7, 0)
	const s = 1000
	var small, large int
	for i := 0; i < 10000; i++ {
		l := RQLen(rng, s)
		if l < 1 || l > s {
			t.Fatalf("RQLen = %d outside [1,%d]", l, s)
		}
		if l <= s/10 {
			small++
		}
		if l > s/2 {
			large++
		}
	}
	// x^2 biases toward small: P(len <= S/10) = sqrt(0.1) ~ 31.6%,
	// P(len > S/2) = 1-sqrt(0.5) ~ 29.3%.
	if small < 2500 || large > 3500 {
		t.Fatalf("distribution shape off: small=%d large=%d of 10000", small, large)
	}
}

func TestRunLightTrialValidates(t *testing.T) {
	t.Parallel()
	tr := bst.New(bst.Config{Algorithm: engine.AlgThreePath})
	res := Run(tr, Config{
		Threads:  4,
		Duration: 150 * time.Millisecond,
		KeyRange: 1024,
		Kind:     Light,
		Seed:     1,
	})
	if !res.KeySumOK {
		t.Fatal("key-sum validation failed")
	}
	if res.Ops == 0 || res.Throughput == 0 {
		t.Fatalf("no operations measured: %+v", res)
	}
	if res.RQOps != 0 {
		t.Fatalf("light workload performed %d range queries", res.RQOps)
	}
	if res.PathStats.Total() == 0 {
		t.Fatal("no path statistics collected")
	}
}

func TestRunHeavyTrialValidates(t *testing.T) {
	t.Parallel()
	tr := abtree.New(abtree.Config{Algorithm: engine.AlgThreePath})
	res := Run(tr, Config{
		Threads:   4,
		Duration:  150 * time.Millisecond,
		KeyRange:  4096,
		RQSizeMax: 2000,
		Kind:      Heavy,
		Seed:      2,
	})
	if !res.KeySumOK {
		t.Fatal("key-sum validation failed")
	}
	if res.RQOps == 0 {
		t.Fatal("heavy workload performed no range queries")
	}
	if res.UpdateOps == 0 {
		t.Fatal("heavy workload performed no updates")
	}
}

func TestRunAllAlgorithmsShort(t *testing.T) {
	t.Parallel()
	for _, alg := range engine.Algorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			t.Parallel()
			tr := bst.New(bst.Config{Algorithm: alg})
			res := Run(tr, Config{
				Threads:  2,
				Duration: 60 * time.Millisecond,
				KeyRange: 256,
				Kind:     Light,
				Seed:     3,
			})
			if !res.KeySumOK {
				t.Fatalf("%v: key-sum validation failed", alg)
			}
		})
	}
}
