package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"orchestra/internal/dist"
)

func TestMain(m *testing.M) {
	// dist-coarse forks this test binary for its workers.
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// pinnedSimEfficiency is sim_efficiency at seed 7: the geometric mean
// of Psirrfan's 0.9196 and climate's 0.8982 under split on 512
// simulated processors.
const pinnedSimEfficiency = 0.9088390848740826

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and the program's tables must name the same workloads
// and metrics, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	var bounded []endToEndDef
	for _, d := range endToEnd {
		if !d.partial {
			bounded = append(bounded, d)
		}
	}
	if len(b.EndToEnd) != len(bounded) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d defined everywhere", len(b.EndToEnd), len(bounded))
	}
	for i, d := range bounded {
		if got := b.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if got := b.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
}

// shortConfig is a run cut down to what a test needs: a brief warm-up
// and one episode.
func shortConfig(t *testing.T, seconds time.Duration) (config, envBlock) {
	t.Helper()
	p, over, err := resolveP(0, false)
	if err != nil {
		t.Fatal(err)
	}
	return config{seed: 7, p: p, seconds: seconds, warmup: 200 * time.Millisecond, episodes: 1}, newEnv(p, over)
}

// runBench runs one workload in process and splits the standard output
// into the full report and the driver's last line.
func runBench(t *testing.T, name string, seconds time.Duration, trace bool, traceOut string) (code int, rep report, last result) {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg, env := shortConfig(t, seconds)
	var stdout, stderr bytes.Buffer
	code = runWorkload(w, cfg, env, trace, traceOut, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("exit %d, %d lines on stdout; stderr:\n%s", code, len(lines), stderr.String())
	}
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	return code, rep, last
}

func checkNames(t *testing.T, got metrics, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, name := range want {
		v, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", name)
		case v.Unit == "":
			t.Errorf("metric %s has no unit", name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", name, v.Value)
		}
	}
}

// Every workload runs, verifies every op, and prints exactly the
// end-to-end metrics BENCHMARK.json lists.
func TestSmokeUntraced(t *testing.T) {
	b := readBenchmarkJSON(t)
	var want []string
	for _, m := range b.EndToEnd {
		want = append(want, m.Name)
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, rep, last := runBench(t, w.Name, time.Second, false, "")
			if code != 0 || !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Fatalf("exit %d, result %+v, error %q", code, last, rep.Error)
			}
			checkNames(t, last.Metrics, want)
			for name, v := range last.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			if v := rep.Metrics["failed_share"]; v.Value != 0 {
				t.Errorf("failed_share = %v", v.Value)
			}
			if rep.Env.P < 1 || rep.Env.NumCPU < rep.Env.P || rep.Env.Oversubscribed {
				t.Errorf("env block: %+v", rep.Env)
			}
			// A baseline op runs after every four ops, so a slow machine
			// may fit none into one second.
			_, hasSpeedup := rep.Metrics["speedup_vs_seq"]
			hasBaseline := strings.HasPrefix(w.Name, "native-") || w.Name == "dist-coarse"
			if hasSpeedup != (rep.BaselineSamples > 0) || (!hasBaseline && hasSpeedup) {
				t.Errorf("speedup_vs_seq reported: %v, with %d baseline ops", hasSpeedup, rep.BaselineSamples)
			}
			eff, hasEff := rep.Metrics["sim_efficiency"]
			if hasEff != (w.Name == "sim-fig6") {
				t.Errorf("sim_efficiency reported: %v", hasEff)
			}
			if hasEff && math.Abs(eff.Value-pinnedSimEfficiency) > 1e-12 {
				t.Errorf("sim_efficiency = %v at seed 7, want %v", eff.Value, pinnedSimEfficiency)
			}
		})
	}
}

// A traced run prints every per-layer metric, whichever workload is
// selected, and writes the spans.
func TestSmokeTraced(t *testing.T) {
	var want []string
	for _, d := range perLayer {
		want = append(want, d.name)
	}
	out := t.TempDir() + "/trace.json"
	code, rep, last := runBench(t, "compile-cold", 2*time.Second, true, out)
	if code != 0 || !last.Correct {
		t.Fatalf("exit %d, result correct=%v, error %q", code, last.Correct, rep.Error)
	}
	checkNames(t, last.Metrics, want)
	if v := last.Metrics["serve.cache_hit_share"]; v.Value != 1 {
		t.Errorf("serve.cache_hit_share = %v, want 1", v.Value)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) == 0 || len(doc.Counts) != len(want) {
		t.Errorf("trace file has %d spans and %d counts", len(doc.Spans), len(doc.Counts))
	}
}

// With its expected result spoiled every workload must count its ops as
// failed and exit non-zero: the verification is live.
func TestCorruptedExpectationFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 7, p: 1, seconds: 300 * time.Millisecond, episodes: 1, corrupt: true}
			rep, err := measure(w, cfg, newEnv(1, false))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := emit(rep, &stdout, &stderr); code == 0 || rep.Failed == 0 || rep.Metrics["failed_share"].Value == 0 {
				t.Errorf("exit %d with %d of %d ops failed", code, rep.Failed, rep.Attempted)
			}
		})
	}
}

func TestOversubscriptionIsRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "sim-fig6", "-p", "4096"}, &stdout, &stderr); code == 0 {
		t.Error("-p 4096 was accepted without -allow-oversubscribed")
	}
	if _, over, err := resolveP(4096, true); err != nil || !over {
		t.Errorf("allowed oversubscription: over=%v err=%v", over, err)
	}
}
