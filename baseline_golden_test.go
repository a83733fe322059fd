package ppnpart_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"ppnpart/internal/experiments"
	"ppnpart/internal/galgo"
	"ppnpart/internal/gen"
	"ppnpart/internal/graph"
	"ppnpart/internal/initpart"
	"ppnpart/internal/metrics"
	"ppnpart/internal/mlkp"
)

// TestDeterminismBaselineGoldens pins the comparison partitioners that
// run outside the GP engine — the METIS-style multilevel baseline, the
// memetic GA, the recursive FM-bisection and spectral seeders — plus the
// A5 polish ablation rows. Each is deterministic for a fixed seed, so any
// change to how they drive the shared refinement passes (workspace and
// CSR plumbing included) must leave these assignments bit-identical.
func TestDeterminismBaselineGoldens(t *testing.T) {
	mk := func(n, m int, seed int64) *graph.Graph {
		g, err := gen.RandomConnected(n, m,
			gen.WeightRange{Lo: 10, Hi: 100}, gen.WeightRange{Lo: 1, Hi: 20},
			rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	large, small := mk(600, 1800, 42), mk(90, 260, 5)
	tight := metrics.Constraints{
		Rmax: small.TotalNodeWeight()*110/(100*4) + small.MaxNodeWeight(),
		Bmax: 3 * small.TotalEdgeWeight() / 8,
	}

	cases := []struct {
		name string
		want string
		run  func() ([]int, error)
	}{
		{"mlkp/k4", "3e7b6bd2e6cf0f30b29e8273bb279a9d65a2070aa9c35b79cf0065d06d16fdaa", func() ([]int, error) {
			res, err := mlkp.Partition(large, mlkp.Options{K: 4, Seed: 3})
			if err != nil {
				return nil, err
			}
			return res.Parts, nil
		}},
		{"mlkp/k7", "730d1074406fc3e180d38fa85a833da744e97135a081fa8ac4c8e09bcb146ea8", func() ([]int, error) {
			res, err := mlkp.Partition(large, mlkp.Options{K: 7, Seed: 9})
			if err != nil {
				return nil, err
			}
			return res.Parts, nil
		}},
		{"galgo/constrained", "bda49d33860d8e39e604864848c3a2c90c0f8b3d98ad98488a85e83d55bd1746", func() ([]int, error) {
			res, err := galgo.Partition(small, galgo.Options{K: 4, Constraints: tight, Generations: 25, Seed: 4})
			if err != nil {
				return nil, err
			}
			return res.Parts, nil
		}},
		{"galgo/unconstrained", "1f3f79c63325d07912db5e98bffc20e6a07f6c0b86dd241b6a05284e9d156d08", func() ([]int, error) {
			res, err := galgo.Partition(small, galgo.Options{K: 3, Generations: 15, Seed: 6})
			if err != nil {
				return nil, err
			}
			return res.Parts, nil
		}},
		{"recursive-bisect/k5", "cc16936401be667632e03217f7c083ba6e89700e5605784d4c3c8490b64207f8", func() ([]int, error) {
			return initpart.RecursiveBisect(large.ToCSR(), 5, rand.New(rand.NewSource(11)))
		}},
		{"spectral/k4", "cc81310516034728549507f5029d9847361e792460103699eb651bc5406d876b", func() ([]int, error) {
			return initpart.SpectralKWay(mk(200, 600, 8).ToCSR(), 4, rand.New(rand.NewSource(12)))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			parts, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := hashParts(parts); got != c.want {
				t.Fatalf("assignment hash = %s, want golden %s", got, c.want)
			}
		})
	}

	t.Run("ablation-A5", func(t *testing.T) {
		rows, err := experiments.AblationPolish()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{
			"polish-none cut=4637 feasible=true cycles=1",
			"polish-tabu cut=3968 feasible=true cycles=1",
			"polish-anneal cut=3943 feasible=true cycles=1",
		}
		if len(rows) != len(want) {
			t.Fatalf("%d rows, want %d: %+v", len(rows), len(want), rows)
		}
		for i, r := range rows {
			if got := fmt.Sprintf("%s cut=%d feasible=%v cycles=%d", r.Config, r.Cut, r.Feasible, r.Cycles); got != want[i] {
				t.Errorf("row %d = %q, want golden %q", i, got, want[i])
			}
		}
	})
}

func hashParts(parts []int) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d,", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
