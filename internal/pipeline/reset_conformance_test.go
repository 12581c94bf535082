package pipeline_test

import (
	"testing"

	"ctcp/internal/conformance"
	"ctcp/internal/core"
	"ctcp/internal/pipeline"
)

// TestCorpusOnReusedPipeline: the ISA conformance corpus (DESIGN.md §11)
// passes on one pipeline that is Reset for every program under every
// strategy, so each run follows a different program or strategy.
func TestCorpusOnReusedPipeline(t *testing.T) {
	corpus, err := conformance.LoadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	p := new(pipeline.Pipeline)
	for _, prog := range corpus {
		ref, recs, err := conformance.RunRef(prog.Prog, 0)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		for _, k := range core.Strategies() {
			cfg := pipeline.DefaultConfig().WithStrategy(k, false)
			got, err := conformance.RunPipelineOn(p, prog.Prog, 0, cfg, recs)
			if err == nil {
				err = conformance.CompareArch(got, ref)
			}
			if err != nil {
				t.Errorf("%s/%v: %v", prog.Name, k, err)
			}
		}
	}
}
