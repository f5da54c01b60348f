package engine

import (
	"repro/internal/blocking"
	"repro/internal/core"
)

// Fuse executes the fusion stages — the ITER ⇄ record-graph ⇄
// CliqueRank/RSS reinforcement rounds plus the final η thresholding —
// by driving core.FusionRun phase by phase, so each phase's wall time,
// sizes and iteration counts land in the trace without duplicating the
// loop. The run's checkpoint, worker budget and scratch arena override
// the corresponding option fields; the run's clock times the phases
// (opts.Clock, when set, still times the core result's Elapsed).
//
// The per-round phases are recorded as aggregates: one StageITER, one
// StageRecordGraph and one StageCliqueRank (or StageRSS) entry each
// summing all rounds, followed by a StageFuse entry for the
// thresholding. Entries are recorded even when the run is canceled
// mid-loop, so partial traces survive for diagnosis.
func Fuse(r *Run, g *blocking.Graph, numRecords int, opts core.Options) (*core.FusionResult, error) {
	opts.Check = r.check
	opts.Workers = r.workers
	opts.Scratch = &r.scratch
	if opts.Clock == nil {
		opts.Clock = r.clk
	}

	rankStage := StageCliqueRank
	if opts.UseRSS {
		rankStage = StageRSS
	}
	iterSt := StageTrace{Stage: StageITER, In: g.NumTerms, InUnit: "terms", Out: g.NumPairs(), OutUnit: "pairs"}
	graphSt := StageTrace{Stage: StageRecordGraph, In: g.NumPairs(), InUnit: "pairs", OutUnit: "edges"}
	rankSt := StageTrace{Stage: rankStage, InUnit: "edges", Out: g.NumPairs(), OutUnit: "pairs"}

	f := core.NewFusionRun(g, numRecords, opts)
	record := func() {
		r.Record(iterSt)
		r.Record(graphSt)
		r.Record(rankSt)
	}

	for f.Next() {
		start := r.clk()
		iterations, err := f.StepITER()
		iterSt.Wall += r.clk().Sub(start)
		iterSt.Rounds++
		iterSt.Iterations += iterations
		if err != nil {
			record()
			return nil, err
		}

		start = r.clk()
		_, edges := f.StepGraph()
		graphSt.Wall += r.clk().Sub(start)
		graphSt.Rounds++
		graphSt.Out = edges

		start = r.clk()
		err = f.StepRank()
		rankSt.Wall += r.clk().Sub(start)
		rankSt.Rounds++
		rankSt.In = edges
		if err != nil {
			record()
			return nil, err
		}
	}

	start := r.clk()
	res := f.Finish()
	fuseSt := StageTrace{Stage: StageFuse, In: g.NumPairs(), InUnit: "pairs", OutUnit: "matches"}
	fuseSt.Wall = r.clk().Sub(start)
	for _, m := range res.Matches {
		if m {
			fuseSt.Out++
		}
	}
	record()
	r.Record(fuseSt)
	return res, nil
}
