package netmodel

import "testing"

const (
	fuzzNodesPerSite = 3
	fuzzMaxOps       = 64
)

// decodeSchedule turns fuzz input into a bounded flow schedule: at most
// fuzzMaxOps ops, one per three input bytes, each choice genSchedule makes
// read from the next byte (two for choices above 256). An exhausted input
// reads as zeros.
func decodeSchedule(data []byte) []schedOp {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	draw := func(n int) int {
		v := next()
		if n > 256 {
			v = v<<8 | next()
		}
		return v % n
	}
	return genSchedule(draw, min(fuzzMaxOps, len(data)/3), fuzzNodesPerSite)
}

// FuzzRebalancerEquivalence requires the incremental rebalance to reproduce
// the recompute-everything oracle exactly — completion order and instants,
// Stats and engine counts — on schedules decoded from the input, with the
// link registries checked after every engine step. The committed corpus
// under testdata/fuzz replays on every plain go test.
func FuzzRebalancerEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeSchedule(data)
		inc := runSchedule(t, ops, fuzzNodesPerSite, false)
		ora := runSchedule(t, ops, fuzzNodesPerSite, true)
		compareRuns(t, inc, ora)
	})
}
