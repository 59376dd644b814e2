package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smallSizes keeps the self-test to seconds: the harness's code paths,
// not its measurements, are under test.
var smallSizes = sizes{
	figLength:    4000,
	hotCells:     24,
	fleetCells:   32,
	cellLength:   2000,
	setupReps:    1,
	figSetupReps: 1,
	probeCells:   4,
}

func runSmall(t *testing.T, workload string, traced, corrupt bool) (*outcome, string) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 0.5, traced: traced, root: t.TempDir(), sizes: smallSizes, corruptRef: corrupt}
	var buf bytes.Buffer
	out, err := run(o, &buf)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, buf.String())
	}
	return out, buf.String()
}

// TestCatalogueMatchesBenchmarkJSON: the metrics the harness prints are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", c.what, len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, harness %s %s", c.what, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestEveryMetricPrintedWithUnit runs each workload untraced and traced
// and checks that every named metric reaches both the JSON line and the
// human-readable report with its unit, and that the current code
// answers every operation correctly.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	for _, w := range []string{"figures", "serve-hot", "serve-fleet"} {
		for _, traced := range []bool{false, true} {
			out, text := runSmall(t, w, traced, false)
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !strings.Contains(text, d.name+" ") || !strings.Contains(text, " "+d.unit) {
					t.Errorf("%s traced=%t: report does not print %s with unit %s", w, traced, d.name, d.unit)
				}
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w, traced, out.Correct, out.Attempted, out.Failed)
			}
			if !traced && out.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v, want 1", w, out.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestCorruptReferenceLowersOKFrac: a deliberately wrong reference must
// be caught, so the checker cannot silently pass everything.
func TestCorruptReferenceLowersOKFrac(t *testing.T) {
	for _, w := range []string{"figures", "serve-hot"} {
		out, _ := runSmall(t, w, false, true)
		if f := out.Metrics["ok_frac"].Value; f >= 1 || out.Correct || out.Failed == 0 {
			t.Errorf("%s with a corrupted reference: ok_frac %v correct %t failed %d", w, f, out.Correct, out.Failed)
		}
	}
}

func TestSameButElapsed(t *testing.T) {
	base := "{\n  \"elapsed_ns\": 1234,\n  \"origin\": \"memory\",\n  \"result\": {\"Hits\": 5}\n}\n"
	for _, c := range []struct {
		b    string
		want bool
	}{
		{base, true},
		{strings.Replace(base, "1234", "99", 1), true},
		{strings.Replace(base, "1234", "123456", 1), true},
		{strings.Replace(base, "1234", "1239", 1), true},
		{strings.Replace(base, "\"Hits\": 5", "\"Hits\": 6", 1), false},
		{strings.Replace(base, "memory", "disk", 1), false},
		{strings.Replace(strings.Replace(base, "1234", "1", 1), "\"Hits\": 5", "\"Hits\": 7", 1), false},
	} {
		if got := sameButElapsed([]byte(base), []byte(c.b)); got != c.want {
			t.Errorf("sameButElapsed(%q) = %t, want %t", c.b, got, c.want)
		}
	}
}

// TestRoundMedians: a serve pass reports the median over its rounds, so
// one slow round moves neither the rate nor the percentiles.
func TestRoundMedians(t *testing.T) {
	round := func(ms float64) []float64 {
		lat := make([]float64, roundOps)
		for i := range lat {
			lat[i] = ms
		}
		return lat
	}
	p := passStats{
		setup:    []float64{1},
		rounds:   []float64{1, 1, 10},
		roundLat: [][]float64{round(1), round(2), round(50)},
		lat:      append(append(round(1), round(2)...), round(50)...),
		ops:      3 * roundOps,
		seconds:  12,
	}
	r := newResults()
	p.publish(r, "", "request")
	for name, want := range map[string]float64{"req_per_s": roundOps, "latency_p50_ms": 2, "latency_p99_ms": 2, "wall_s": 1} {
		if got := r.vals[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestFigureTailQuantile: a figures run reports the same tail quantile
// whether it made two or three regenerations, with at least 10 tables
// beyond it.
func TestFigureTailQuantile(t *testing.T) {
	q := 1 - 10.5/24
	for _, n := range []int{24, 36, 48} {
		lat := make([]float64, n)
		for i := range lat {
			lat[i] = float64(i + 1)
		}
		got, _, beyond := tailPercentile(lat, q, 10)
		if got != q || beyond < 10 {
			t.Errorf("n=%d: quantile %v with %d beyond, want %v with at least 10", n, got, beyond, q)
		}
	}
}
