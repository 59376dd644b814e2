// Command perfbench is the repository's end-to-end benchmark.  One
// process runs one workload, checks every answer it measures against a
// reference computed independently of the code path under test, and
// prints the workload's metrics.  README.md records why each workload
// was chosen and which end-to-end metric each per-layer metric moves.
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// Workloads:
//
//	figures      regenerate the paper's 12 figures from compiled traces
//	serve-hot    one simd node, memory tier larger than the working set
//	serve-fleet  two simd nodes with on-disk stores, memory tier 1/8 of
//	             the working set, ~2% never-seen cells
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 a
// traced run (spans around every layer call, per-layer probes after the
// pass) prints the per-layer metrics.  Either way the last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":…}}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options is one invocation.  sizes and corruptRef are not flags: the
// self-test shrinks the workloads and corrupts a reference through them.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	traced     bool
	root       string
	sizes      sizes
	corruptRef bool
}

// sizes fixes how much work a workload does.
type sizes struct {
	// figLength is the accesses per benchmark in the figures workload
	// (the paper's 300k).
	figLength int
	// hotCells and fleetCells are the serve working sets; cellLength is
	// the accesses each serve cell simulates.
	hotCells, fleetCells, cellLength int
	// setupReps and figSetupReps are how many times a serve or figures
	// run sets up from scratch; setup_s is the median.  A figures set-up
	// is a whole cold regeneration, so it repeats fewer times.
	setupReps, figSetupReps int
	// probeCells bounds the cells and traces the per-layer probes replay.
	probeCells int
}

var defaultSizes = sizes{
	figLength:    300_000,
	hotCells:     768,
	fleetCells:   512,
	cellLength:   20_000,
	setupReps:    3,
	figSetupReps: 2,
	probeCells:   24,
}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "figures, serve-hot or serve-fleet")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: cell seeds, Zipf schedule, fresh-cell ids, figure trace seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured pass")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()
	o.traced = *trace == 1
	o.sizes = defaultSizes
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *trace))
	}
	if o.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	out, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one workload and returns the outcome; the human-readable
// report (every metric with its unit and sample counts) goes to w.
func run(o options, w io.Writer) (*outcome, error) {
	build := filepath.Join(o.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	rep := newResults()
	started := time.Now()
	switch o.workload {
	case "figures":
		err = runFigures(o, rec, rep, scratch)
	case "serve-hot":
		err = runServe(o, rec, rep, hotShape(o.sizes), scratch)
	case "serve-fleet":
		err = runServe(o, rec, rep, fleetShape(o.sizes), scratch)
	default:
		err = fmt.Errorf("unknown --workload %q (want figures, serve-hot or serve-fleet)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.summarize(rep)
		path := filepath.Join(build, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := rec.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", rec.len(), path)
	}
	fmt.Fprintf(w, "run: %s seed %d traced=%t in %.1fs\n", o.workload, o.seed, o.traced, time.Since(started).Seconds())

	defs := endToEnd
	if o.traced {
		defs = perLayer()
	}
	return rep.outcome(defs, o.traced, w)
}
