package core

import (
	"slices"
	"sort"
)

// This file is core's side of event-driven heartbeats (see the driver in
// NewSystem and internal/hdfs/liveness.go). A regular worker's beats reach
// its masters unchanged every time, so the masters credit them in bulk
// (Tick) and never scan them for timeouts. Core reports every way a worker
// can stop beating plainly, so the masters can silence its records:
//
//   - death (preemption in every zombie mode, a zombie's self-shutdown, disk
//     overflow, a kill) silences both records for good; a zombie silences
//     only its datanode;
//   - a partition cut, gray heartbeat loss, the start of a master-loss retry
//     or a heal that revives a record unsettles the worker: both records
//     are silenced and the worker joins the irregular set.
//
// A new worker starts irregular too: its records register silenced. An
// irregular worker is visited on every beat, exactly as a full walk would
// visit it. Once a beat finds it regular again (healed, restored,
// re-registered) and it has just beaten for real, its records resume plain
// crediting and it leaves the irregular set. A retry campaign that gives up
// leaves the worker irregular for good.

// regular reports whether every beat w sends reaches its masters plainly.
// A zombie's datanode is dead with its working directory and does not count.
func (s *System) regular(w *worker) bool {
	if w.health == workerDead || w.grayLoss > 0 || w.jtLost || !s.Net.MasterReachable(w.id) {
		return false
	}
	return w.health == workerZombie || !w.nnLost
}

// silence tells both masters that w stopped beating plainly.
func (s *System) silence(w *worker) {
	s.NN.Silence(w.dn)
	s.JT.Silence(w.tr)
}

// unsettle silences w and adds it to the irregular set, which the driver
// visits on every beat, in join order, until w beats plainly again.
func (s *System) unsettle(w *worker) {
	s.silence(w)
	if w.irregular || w.health == workerDead {
		return
	}
	w.irregular = true
	i := sort.Search(len(s.irregular), func(i int) bool { return s.irregular[i].seq > w.seq })
	s.irregular = slices.Insert(s.irregular, i, w)
}

// settle runs after every beat: the dead leave the irregular set, and the
// workers that beat plainly again resume crediting — the beat just now
// stamped them at the current tick.
func (s *System) settle() {
	k := 0
	for _, w := range s.irregular {
		switch {
		case w.health == workerDead:
			w.irregular = false
		case s.regular(w):
			w.irregular = false
			if w.health == workerHealthy {
				s.NN.Resume(w.dn)
			}
			s.JT.Resume(w.tr)
		default:
			s.irregular[k] = w
			k++
		}
	}
	s.irregular = s.irregular[:k]
}
