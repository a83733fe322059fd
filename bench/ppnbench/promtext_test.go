package main

import (
	"strings"
	"testing"
)

func TestParsePromText(t *testing.T) {
	text := `# HELP ppnd_shed_total Load-shed submissions by priority class.
# TYPE ppnd_shed_total counter
ppnd_shed_total{priority="low"} 3
ppnd_shed_total{priority="normal"} 4
ppnd_cache_hits_total 12
ppnd_rejected_total{reason="two words"} 1

ppnd_solve_ewma_seconds 0.0125
ppnd_solve_seconds_bucket{le="+Inf"} 7
`
	got, err := parsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`ppnd_shed_total{priority="low"}`:         3,
		`ppnd_shed_total{priority="normal"}`:      4,
		`ppnd_cache_hits_total`:                   12,
		`ppnd_rejected_total{reason="two words"}`: 1,
		`ppnd_solve_ewma_seconds`:                 0.0125,
		`ppnd_solve_seconds_bucket{le="+Inf"}`:    7,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if s := sumFamily(got, "ppnd_shed_total"); s != 7 {
		t.Errorf("sumFamily(ppnd_shed_total) = %v, want 7", s)
	}
	if s := sumFamily(got, "ppnd_solve_seconds"); s != 0 {
		t.Errorf("sumFamily matched another family's samples: %v", s)
	}
}

func TestParsePromTextRejectsMissingValue(t *testing.T) {
	for _, text := range []string{"ppnd_cache_hits_total\n", "ppnd_shed_total{priority=\"low\"}\n", "x notanumber\n"} {
		if _, err := parsePromText(strings.NewReader(text)); err == nil {
			t.Errorf("%q parsed without error", text)
		}
	}
}
