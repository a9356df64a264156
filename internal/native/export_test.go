package native

import (
	"orchestra/internal/delirium"
	"orchestra/internal/rts"
)

// EngineFrontier is the Frontier a p-worker ModeSplit run of g would
// drive, not started, for the external tests of the batch rule.
func EngineFrontier(g *delirium.Graph, bind rts.Binder, p int) (*rts.Frontier, error) {
	e, err := newEngine(g, bind, rts.RunOpts{Mode: rts.ModeSplit}, p)
	if err != nil {
		return nil, err
	}
	return e.f, nil
}
