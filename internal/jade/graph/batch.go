package graph

import (
	"fmt"

	"repro/internal/jade"
	"repro/internal/metrics"
)

// This file is a compatibility shim: the frozen bench/ module compiles
// against VariantSet, which used to drive K variants of one graph in
// lockstep. With the plan shared by every Replay that bought nothing,
// so Run is now a loop over Replay. Nothing else should use it.

// Variant is one replay of a graph: a factory for a fresh platform plus
// the runtime configuration. Sequential is ignored (retained for bench/).
type Variant struct {
	Platform   func() jade.Platform
	Cfg        jade.Config
	Sequential bool
}

// VariantResult is one variant's outcome: Run, or the Err (validation
// failure or recovered panic) that replaced it. Fallback is always
// false (retained for bench/).
type VariantResult struct {
	Run      *metrics.Run
	Err      error
	Fallback bool
}

// VariantSet is K variants of one graph. Create one with NewVariantSet.
type VariantSet struct {
	g    *Graph
	vars []Variant
}

func NewVariantSet(g *Graph, vars []Variant) *VariantSet {
	return &VariantSet{g: g, vars: vars}
}

// Run replays every variant in order, calling each factory exactly
// once. A panic inside one variant's machine becomes that variant's
// Err and never disturbs its siblings.
func (s *VariantSet) Run() []VariantResult {
	res := make([]VariantResult, len(s.vars))
	for i := range s.vars {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					res[i] = VariantResult{Err: fmt.Errorf("graph: replay panicked: %v", rec)}
				}
			}()
			res[i].Run, res[i].Err = s.g.Replay(s.vars[i].Platform(), s.vars[i].Cfg)
		}()
	}
	return res
}
