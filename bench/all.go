package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"text/tabwriter"
)

// runSet runs every workload in a process of its own (so that
// peak_rss_mb is the workload's and not the set's) and returns the
// reports. A workload that fails still yields its report.
func runSet(childArgs []string, stderr io.Writer) ([]*report, bool, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	ok := true
	var reps []*report
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, append([]string{"-workload", w.name}, childArgs...)...)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		runErr := cmd.Run()
		line, _, _ := bytes.Cut(out.Bytes(), []byte("\n"))
		var rep report
		if err := json.Unmarshal(line, &rep); err != nil {
			return nil, false, fmt.Errorf("%s: no report (%v)", w.name, runErr)
		}
		if runErr != nil {
			ok = false
		}
		reps = append(reps, &rep)
	}
	return reps, ok, nil
}

// runAll prints every workload's metrics as one JSON document. With
// repeat it runs the set twice, back to back, and fails if any
// end-to-end metric of any workload differs between the two by more
// than its bound.
func runAll(childArgs []string, repeat bool, stdout, stderr io.Writer) int {
	first, ok, err := runSet(childArgs, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	doc := struct {
		Env       envBlock  `json:"env"`
		Workloads []*report `json:"workloads"`
		Repeat    []*report `json:"repeat,omitempty"`
	}{Env: first[0].Env, Workloads: first}
	if repeat {
		second, ok2, err := runSet(childArgs, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		doc.Repeat = second
		ok = ok && ok2 && agree(first, second, stderr)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !ok {
		return 1
	}
	return 0
}

// agree prints both values of every end-to-end metric, their relative
// difference and the bound, and reports whether all pairs are within
// their bounds.
func agree(first, second []*report, w io.Writer) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t")
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			va, okA := a.Metrics[d.name]
			vb, okB := b.Metrics[d.name]
			if !okA && !okB {
				continue
			}
			diff := math.Abs(vb.Value - va.Value)
			if va.Value != 0 {
				diff /= math.Abs(va.Value)
			}
			verdict := ""
			if okA != okB || diff > d.bound {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%.0f%%\t%s\n", a.Workload, d.name, va.Value, vb.Value, 100*diff, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	return ok
}
