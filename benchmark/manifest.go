package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// manifest is BENCHMARK.json: exactly the keys the benchmark contract
// names, generated from inventory.go.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWL     `json:"workloads"`
	EndToEnd   []manifestE2E    `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWL struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestE2E struct {
	manifestMetric
	Bound float64 `json:"bound"`
}

// manifestJSON renders BENCHMARK.json from the inventory.
func manifestJSON() ([]byte, error) {
	m := manifest{Command: benchCommand, Paths: benchPaths, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWL{w.Name, w.Why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{manifestMetric{e.Name, e.Unit, e.Better}, e.Bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{l.Name, l.Unit, l.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	if buf.Len() > 64<<10 {
		return nil, fmt.Errorf("manifest is %d bytes, over the 64 KiB limit", buf.Len())
	}
	return buf.Bytes(), nil
}

// cmdManifest prints BENCHMARK.json as the inventory defines it, or
// writes it (-write) where the checkout root has it.
func cmdManifest(args []string) error {
	fs := flag.NewFlagSet("manifest", flag.ContinueOnError)
	write := fs.Bool("write", false, "write BENCHMARK.json instead of printing it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want, err := manifestJSON()
	if err != nil {
		return err
	}
	if *write {
		return os.WriteFile("BENCHMARK.json", want, 0o644)
	}
	_, err = os.Stdout.Write(want)
	return err
}
