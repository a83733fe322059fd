package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ppnpart/internal/core"
	"ppnpart/internal/galgo"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/initpart"
	"ppnpart/internal/metrics"
	"ppnpart/internal/mlkp"
)

// RelatedRow is one method's outcome on one workload of the E3 study:
// the related-work families §II surveys (spectral global methods, genetic
// algorithms) and the METIS-style baseline, head to head with GP on the
// constrained mapping problem.
type RelatedRow struct {
	// Workload and Method identify the cell.
	Workload, Method string
	// Cut, MaxBW, MaxRes, Feasible, Time summarize the run.
	Cut      int64
	MaxBW    int64
	MaxRes   int64
	Feasible bool
	Time     time.Duration
}

// RunRelated compares the four methods on the three paper instances plus
// the 400-node ablation workload.
func RunRelated() ([]RelatedRow, error) {
	type workload struct {
		name string
		g    *graph.Graph
		k    int
		c    metrics.Constraints
	}
	var workloads []workload
	for i := 1; i <= gen.NumPaperInstances(); i++ {
		inst, err := gen.PaperInstance(i)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, workload{inst.Name, inst.G, inst.K, inst.Constraints})
	}
	g, c, k, err := ablationWorkload()
	if err != nil {
		return nil, err
	}
	workloads = append(workloads, workload{"random-400", g, k, c})

	var out []RelatedRow
	for _, w := range workloads {
		eval := func(method string, parts []int, d time.Duration) {
			rep := metrics.Evaluate(w.g, parts, w.k, w.c)
			out = append(out, RelatedRow{
				Workload: w.name, Method: method,
				Cut: rep.EdgeCut, MaxBW: rep.MaxLocalBandwidth, MaxRes: rep.MaxResource,
				Feasible: rep.Feasible, Time: d,
			})
		}

		base, err := mlkp.Partition(w.g, mlkp.Options{K: w.k, Seed: 1})
		if err != nil {
			return nil, err
		}
		eval("METIS-like", base.Parts, base.Runtime)

		t0 := time.Now()
		spec, err := initpart.SpectralKWay(w.g.ToCSR(), w.k, rand.New(rand.NewSource(1)))
		if err != nil {
			return nil, err
		}
		eval("spectral", spec, time.Since(t0))

		ga, err := galgo.Partition(w.g, galgo.Options{
			K: w.k, Constraints: w.c, Seed: 1,
			Generations: 60, PopSize: 32,
		})
		if err != nil {
			return nil, err
		}
		eval("genetic", ga.Parts, ga.Runtime)

		gp, err := core.Partition(w.g, core.Options{
			K: w.k, Constraints: w.c, Seed: 1, MaxCycles: 24,
		})
		if err != nil {
			return nil, err
		}
		eval("GP", gp.Parts, gp.Runtime)
	}
	return out, nil
}

// FormatRelated renders the E3 rows.
func FormatRelated(w io.Writer, rows []RelatedRow) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p("E3: related-work methods on the constrained problem\n")
	p("%-14s %-12s %-8s %-8s %-8s %-9s %s\n",
		"workload", "method", "cut", "maxBW", "maxRes", "feasible", "time")
	for _, r := range rows {
		p("%-14s %-12s %-8d %-8d %-8d %-9v %s\n",
			r.Workload, r.Method, r.Cut, r.MaxBW, r.MaxRes, r.Feasible, fmtDuration(r.Time))
	}
	return err
}
