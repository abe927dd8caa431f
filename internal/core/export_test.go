package core

import (
	"hog/internal/hdfs"
	"hog/internal/mapred"
	"hog/internal/netmodel"
)

// OracleWorker is a copy of one worker's heartbeat state, for the full-scan
// oracle in beatoracle_test.go.
type OracleWorker struct {
	ID       netmodel.NodeID
	DN       *hdfs.DatanodeInfo
	TR       *mapred.TaskTracker
	Healthy  bool
	Dead     bool
	GrayLoss float64
	NNLost   bool
	JTLost   bool
	// Irregular reports membership in the set the idle beat visits.
	Irregular bool
}

// OracleWorkers appends every worker ever joined, in join order, to buf.
func (s *System) OracleWorkers(buf []OracleWorker) []OracleWorker {
	for _, w := range s.workerList {
		buf = append(buf, OracleWorker{
			ID:        w.id,
			DN:        w.dn,
			TR:        w.tr,
			Healthy:   w.health == workerHealthy,
			Dead:      w.health == workerDead,
			GrayLoss:  w.grayLoss,
			NNLost:    w.nnLost,
			JTLost:    w.jtLost,
			Irregular: w.irregular,
		})
	}
	return buf
}

// GrayShadow replays a system's gray heartbeat-loss stream from its seed.
type GrayShadow struct{ g *grayStream }

// NewGrayShadow returns the gray stream a system with this seed starts with.
func NewGrayShadow(seed int64) *GrayShadow { return &GrayShadow{newGrayStream(seed)} }

// Drop draws whether one beat of a worker with this loss is dropped.
func (g *GrayShadow) Drop(loss float64) bool { return g.g.rnd.Float64() < loss }

// Draws returns the number of values drawn so far.
func (g *GrayShadow) Draws() uint64 { return g.g.src.Draws() }
