package scenario

import (
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/pack"
)

// GridWith builds an n-component cluster (n ≥ 3) for scalability studies:
// a chain of sensor→control DASs, one DAS per adjacent component pair, with
// the diagnostic DAS's analysis stage on the last component. Channel i+1
// carries the i-th sensor's signal. Extra engine options compose onto the
// canonical configuration — checkpoint sinks, restore sources, trace
// writers.
func GridWith(n int, seed uint64, opts diagnosis.Options, extra ...engine.Option) *System {
	if n < 3 {
		panic("scenario: grid needs at least 3 components")
	}
	sys := &System{}
	t := pack.GridTopology(n)
	eng := engine.MustNew(append(t.Options(seed, opts, nil), extra...)...)
	sys.Engine = eng
	sys.Cluster = eng.Cluster
	sys.Diag = eng.Diag
	sys.OBD = eng.OBD
	sys.Injector = eng.Injector
	return sys
}
