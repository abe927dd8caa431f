package main

import (
	"runtime"
	"testing"

	"hog/internal/core"
	"hog/internal/workload"
)

func TestWatchHeapSeesLiveAllocation(t *testing.T) {
	stop := watchHeap()
	buf := make([]byte, 64<<20)
	peak := stop()
	runtime.KeepAlive(buf)
	if peak < uint64(len(buf)) {
		t.Errorf("peak heap %d bytes, want at least the %d live", peak, len(buf))
	}
}

// math/rand reduces a seed modulo 2^31-1, so inputs must differ modulo it.
func TestInputSeedsOfDistinctRunSeedsDiffer(t *testing.T) {
	seen := map[int64]int64{}
	for seed := int64(1); seed <= 100; seed++ {
		for j := 0; j < 64; j++ {
			s := inputSeed(seed, j) % (1<<31 - 1)
			if prev, ok := seen[s]; ok {
				t.Fatalf("run seeds %d and %d share input seed %d", prev, seed, s)
			}
			seen[s] = seed
		}
	}
	w := workloads["osg-faults"]
	if caseSeed(w, 7, 0) != 7 {
		t.Errorf("case 0 of seed 7 runs seed %d, want 7", caseSeed(w, 7, 0))
	}
	if got, want := inputSeed(caseSeed(w, 7, 1), 2), inputSeed(7, w.sims+2); got != want {
		t.Errorf("simulation 2 of case 1 of seed 7 runs seed %d, want input %d's %d", got, w.sims+2, want)
	}
}

// Apply rejects a scenario whose steps collide with one already applied,
// so every simulation of every workload must apply cleanly for any seed.
func TestScenariosApplyForManySeeds(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		if w.scenarios == nil {
			continue
		}
		for seed := int64(1); seed <= 100; seed++ {
			for j := 0; j < w.cases*w.sims+w.setupOnly; j++ {
				// Set-up-only inputs follow the cases' and run simulation 0.
				idx := 0
				if j < w.cases*w.sims {
					idx = j % w.sims
				}
				s := inputSeed(seed, j)
				sched := workload.Generate(s, workload.Config{Scale: w.scale})
				sys, err := core.NewSystem(w.config(s))
				if err != nil {
					t.Fatalf("%s seed %d: NewSystem: %v", name, s, err)
				}
				for _, sc := range w.scenarios(s, idx, sched.Jobs) {
					if err := sys.Apply(sc); err != nil {
						t.Fatalf("%s seed %d simulation %d: %v", name, s, idx, err)
					}
				}
			}
		}
	}
}
