package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A claim check compares runs of a parent commit and a change, made with
// the same benchmark settings and alternating which side runs first:
//
//	bash perfbench/run.sh claim-check parent.txt change.txt
//
// Each file holds the full output of one or more runs (the stamp line and
// the JSON result of each). Runs are paired in file order. A metric counts
// as a gain only when the change wins at least nine tenths of the pairs
// and the medians differ by more than the parent's own interquartile
// range; it must hold on every seed present, so a gain shown on the seed
// a change was tuned on is confirmed on a second one.

// run is one parsed benchmark result.
type run struct {
	seed    int64
	metrics map[string]metric
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseRuns(f)
}

func parseRuns(rd io.Reader) ([]run, error) {
	var runs []run
	seed := int64(-1)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "stamp: "); ok {
			var st struct{ Seed int64 }
			if err := json.Unmarshal([]byte(rest), &st); err != nil {
				return nil, fmt.Errorf("stamp: %w", err)
			}
			seed = st.Seed
			continue
		}
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var o outcome
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			return nil, fmt.Errorf("result: %w", err)
		}
		if !o.Correct {
			return nil, fmt.Errorf("a run of seed %d is not correct; it cannot support a claim", seed)
		}
		runs = append(runs, run{seed: seed, metrics: o.Metrics})
	}
	return runs, sc.Err()
}

// directions reads each metric's better direction from BENCHMARK.json:
// true when higher is better.
func directions(path string) (map[string]bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dirs := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		dirs[m.Name] = m.Better == "higher"
	}
	return dirs, nil
}

// claimCheck prints one verdict line per metric and seed.
func claimCheck(w io.Writer, parent, change []run, higher map[string]bool) error {
	if len(parent) != len(change) || len(parent) == 0 {
		return fmt.Errorf("claim-check: %d parent runs and %d change runs (want equal, non-zero counts)", len(parent), len(change))
	}
	seeds := map[int64][]int{}
	for i := range parent {
		if parent[i].seed != change[i].seed {
			return fmt.Errorf("claim-check: pair %d has seeds %d and %d", i, parent[i].seed, change[i].seed)
		}
		seeds[parent[i].seed] = append(seeds[parent[i].seed], i)
	}
	var names []string
	for n := range parent[0].metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var order []int64
	for s := range seeds {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	if len(order) < 2 {
		fmt.Fprintln(w, "note: one seed only; a gain must also hold on a seed the change was not tuned on")
	}
	for _, name := range names {
		better := func(p, c float64) bool { return c < p }
		if higher[name] {
			better = func(p, c float64) bool { return c > p }
		}
		all := true
		for _, s := range order {
			var p, c []float64
			wins := 0
			for _, i := range seeds[s] {
				pv, cv := parent[i].metrics[name].Value, change[i].metrics[name].Value
				p, c = append(p, pv), append(c, cv)
				if better(pv, cv) {
					wins++
				}
			}
			pq, cq := quartiles(p), quartiles(c)
			gain := 10*wins >= 9*len(p) && better(pq[1], cq[1]) && abs(cq[1]-pq[1]) > pq[2]-pq[0]
			all = all && gain
			fmt.Fprintf(w, "%-26s seed %-6d parent median %.6g [%.6g, %.6g]  change median %.6g [%.6g, %.6g]  wins %d/%d  gain %v\n",
				name, s, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], wins, len(p), gain)
		}
		fmt.Fprintf(w, "%-26s gain on every seed: %v\n", name, all && len(order) >= 2)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(n=4), clamped to the
// sample's range at the ends.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return [3]float64{at(1), at(2), at(3)}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runClaimCheck is the claim-check command.
func runClaimCheck(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench claim-check PARENT_RUNS CHANGE_RUNS")
	}
	parent, err := readRuns(args[0])
	if err != nil {
		return err
	}
	change, err := readRuns(args[1])
	if err != nil {
		return err
	}
	higher, err := directions("BENCHMARK.json")
	if err != nil {
		return err
	}
	return claimCheck(os.Stdout, parent, change, higher)
}
