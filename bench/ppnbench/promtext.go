package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parsePromText reads a Prometheus text exposition into a map from the
// sample as written (name plus label set, e.g. ppnd_shed_total{priority="low"})
// to its value. Comment lines are skipped; a sample without a value is an
// error.
func parsePromText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Label values may contain spaces, so split after the label set.
		nameEnd := strings.LastIndexByte(text, '}') + 1
		if nameEnd == 0 {
			nameEnd = strings.IndexAny(text, " \t")
		}
		if nameEnd <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		fields := strings.Fields(text[nameEnd:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[text[:nameEnd]] = v
	}
	return out, sc.Err()
}

// sumFamily adds up every sample of a metric family, labelled or not.
func sumFamily(samples map[string]float64, name string) float64 {
	var s float64
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}
