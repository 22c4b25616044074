package main

import (
	"fmt"
	"math"
)

// The service-level objective a rate must meet on the ladder.
const (
	sloCommitP99Ms  = 50.0
	sloVisibleP99Ms = 500.0
	sloReadP99Ms    = 50.0
	sloFailedFrac   = 0.001
)

var sloText = fmt.Sprintf("commit_p99<=%gms,visible_p99<=%gms,read_p99<=%gms,failed_frac<=%g",
	sloCommitP99Ms, sloVisibleP99Ms, sloReadP99Ms, sloFailedFrac)

// meetsSLO judges one phase.  A write never seen visible counts as
// missing the visibility limit, so a growing backlog fails the step.
func meetsSLO(o *outcome) (bool, string) {
	vis := dist{xs: append([]float64(nil), o.visible.xs...)}
	for i := 0; i < o.unvisible; i++ {
		vis.add(math.Inf(1))
	}
	switch {
	case o.attempted > 0 && float64(o.failed)/float64(o.attempted) > sloFailedFrac:
		return false, fmt.Sprintf("failed %d of %d", o.failed, o.attempted)
	case o.commit.quantile(0.99) > sloCommitP99Ms:
		return false, fmt.Sprintf("commit p99 %.1fms", o.commit.quantile(0.99))
	case vis.quantile(0.99) > sloVisibleP99Ms:
		return false, fmt.Sprintf("visible p99 %.1fms, %d never visible", vis.quantile(0.99), o.unvisible)
	case o.read.quantile(0.99) > sloReadP99Ms:
		return false, fmt.Sprintf("read p99 %.1fms", o.read.quantile(0.99))
	}
	return true, ""
}

// ladderStep is one probed rate and what it achieved.
type ladderStep struct {
	rate     float64 // offered ops/s
	achieved float64 // completed ops/s
	ok       bool
	why      string // why the step failed
}

// climb probes the rates start·ratio^k, k = 1, 2, ..., while more()
// allows, and stops at the first step that misses the SLO.
func climb(start, ratio float64, more func() bool, probe func(rate float64) ladderStep) []ladderStep {
	var steps []ladderStep
	for rate := start * ratio; more(); rate *= ratio {
		s := probe(rate)
		steps = append(steps, s)
		if !s.ok {
			break
		}
	}
	return steps
}

// maxRateAtSLO is the achieved rate of the highest passing step, given
// the fixed-rate phase as step zero.
func maxRateAtSLO(base ladderStep, steps []ladderStep) float64 {
	if !base.ok {
		return 0
	}
	best := base.achieved
	for _, s := range steps {
		if s.ok {
			best = s.achieved
		}
	}
	return best
}
