package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{100, 50, 50, true},
		{100, 90, 90, true},  // exactly ten samples above rank 90
		{100, 95, 95, false}, // five above: too few for a tail
		{1000, 99, 990, true},
		{999, 99, 990, false}, // rank ceil(989.01)=990 leaves nine above
		{1, 50, 1, false},
		{3, 50, 2, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.report {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported")
	}
	if got := tail(seq(100), 95); got != 0 {
		t.Errorf("tail omitted below ten samples beyond: got %v, want 0", got)
	}
	if got := median(seq(4)); got != 2 {
		t.Errorf("median(1..4) = %v, want the lower middle 2", got)
	}
}
