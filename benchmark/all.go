package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// runRecord is one contract run as `benchmark all` stores it.
type runRecord struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Result   result  `json:"result"`
}

// resultFile is one round of `benchmark all`: every workload untraced,
// then every workload traced.
type resultFile struct {
	Env  envInfo     `json:"env"`
	Runs []runRecord `json:"runs"`
}

// cmdAll runs every workload untraced, then every workload traced, each
// in its own child process (clean heap, clean metrics registry, own
// ru_maxrss), and writes one result file per round. The drivers are
// measured once per round, in a process of their own, and every traced
// run of the round reports that one reading.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "seed of the generated data and the statement order")
	rounds := fs.Int("rounds", 1, "rounds (one result file each)")
	outDir := fs.String("out", filepath.Join(benchDir(), "out"), "directory for run-<k>.json and trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	driversFile := filepath.Join(*outDir, "drivers.json")
	var files []*resultFile
	for k := 1; k <= *rounds; k++ {
		rf := &resultFile{Env: newEnvInfo(*seed)}
		for trace := 0; trace <= 1; trace++ {
			var extra []string
			if trace == 1 {
				fmt.Fprintf(os.Stderr, "round %d/%d: drivers\n", k, *rounds)
				var dr driversReport
				if err := runChild(&dr, driversArgs(*seed, runSeconds)...); err != nil {
					return err
				}
				if err := writeJSON(driversFile, dr); err != nil {
					return err
				}
				extra = []string{"--drivers", driversFile}
			}
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "round %d/%d: %s trace=%d\n", k, *rounds, w.Name, trace)
				var res result
				if err := runChild(&res, childArgs(w.Name, *seed, runSeconds, trace, extra...)...); err != nil {
					return err
				}
				if trace == 1 {
					// Each child wrote the shared trace path; keep the latest per workload.
					if err := os.Rename(tracePath(), filepath.Join(*outDir, "trace-"+w.Name+".json")); err != nil {
						return err
					}
				}
				rf.Runs = append(rf.Runs, runRecord{Workload: w.Name, Trace: trace, Seconds: runSeconds, Result: res})
			}
		}
		if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("run-%d.json", k)), rf); err != nil {
			return err
		}
		files = append(files, rf)
	}
	if err := os.Remove(driversFile); err != nil {
		return err
	}
	printSet(os.Stdout, newRunSet(files))
	return nil
}

// childArgs are the arguments of one contract run of this binary.
func childArgs(workload string, seed int64, seconds float64, trace int, extra ...string) []string {
	return append([]string{
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
	}, extra...)
}

// driversArgs are the arguments of the child that measures the drivers.
func driversArgs(seed int64, seconds float64) []string {
	return []string{"drivers", "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64)}
}

// runChild runs this binary in a child process and parses the last line
// of its standard output into v.
func runChild(v any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%v: %w\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return fmt.Errorf("%v: parse result: %w", args, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// gitCommit is the checkout's short commit, or "unknown" outside git.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// driversKey is where a runSet keeps the group A metrics. `all` hands
// one reading of the drivers to every traced run of a round, so a file
// counts once, not once per workload.
const driversKey = "drivers"

// runSet groups the values of every metric by workload (group A: under
// driversKey), over any number of result files:
// samples[workload][metric] in file order.
type runSet struct {
	samples   map[string]map[string][]float64
	attempted map[string]int
	failed    map[string]int
}

func newRunSet(files []*resultFile) *runSet {
	groupA := map[string]bool{}
	for _, m := range perLayer {
		groupA[m.Name] = m.Group == "A"
	}
	s := &runSet{samples: map[string]map[string][]float64{driversKey: {}}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, f := range files {
		var haveDrivers bool
		for _, r := range f.Runs {
			if s.samples[r.Workload] == nil {
				s.samples[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Result.Metrics {
				switch {
				case !groupA[name]:
					s.samples[r.Workload][name] = append(s.samples[r.Workload][name], v.Value)
				case !haveDrivers:
					s.samples[driversKey][name] = append(s.samples[driversKey][name], v.Value)
				}
			}
			haveDrivers = haveDrivers || r.Trace == 1
			s.attempted[r.Workload] += r.Result.Attempted
			s.failed[r.Workload] += r.Result.Failed
		}
	}
	return s
}

func (s *runSet) failedShare(workload string) float64 {
	if s.attempted[workload] == 0 {
		return 0
	}
	return float64(s.failed[workload]) / float64(s.attempted[workload])
}

// loadRunSet reads result files: each path is a file or a directory of
// run-*.json files.
func loadRunSet(path string) (*runSet, error) {
	paths := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(paths)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no run-*.json result files", path)
	}
	var files []*resultFile
	for _, p := range paths {
		var rf resultFile
		if err := readJSON(p, &rf); err != nil {
			return nil, err
		}
		files = append(files, &rf)
	}
	return newRunSet(files), nil
}

// printSet prints every metric of every workload by name and unit: the
// median over the set's runs and how many runs it is the median of.
func printSet(w *os.File, s *runSet) {
	row := func(key, name, unit string) {
		if xs := s.samples[key][name]; len(xs) > 0 {
			fmt.Fprintf(w, "  %-40s %16.4f %-12s n=%d\n", name, median(xs), unit, len(xs))
		}
	}
	for _, wl := range workloads {
		if s.samples[wl.Name] == nil {
			continue
		}
		fmt.Fprintf(w, "== %s  failed_share=%.4f (%d of %d)\n", wl.Name, s.failedShare(wl.Name), s.failed[wl.Name], s.attempted[wl.Name])
		for _, m := range endToEnd {
			row(wl.Name, m.Name, m.Unit)
		}
		for _, m := range perLayer {
			row(wl.Name, m.Name, m.Unit)
		}
	}
	fmt.Fprintf(w, "== %s (group A: measured once per round, workload-independent)\n", driversKey)
	for _, m := range perLayer {
		row(driversKey, m.Name, m.Unit)
	}
	fmt.Fprintf(w, "== derived from %s and %s\n", codeSide, dataSide)
	printDerived(w, s, nil)
}
