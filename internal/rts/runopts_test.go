package rts

import (
	"strings"
	"testing"

	"orchestra/internal/machine"
	"orchestra/internal/obs"
)

func TestRunOptsValidate(t *testing.T) {
	good := []RunOpts{
		{},
		{Processors: 64, Mode: ModeSplit},
		{Processors: 8, Mode: ModeTaper, Sink: &obs.Collector{}},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", o, err)
		}
	}
	bad := []RunOpts{
		{Mode: Mode(42)},
		{Processors: -1},
		{Chain: ChainPolicy(7)},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v: invalid options accepted", o)
		}
	}
}

func TestProcessorsDefault(t *testing.T) {
	if got := (RunOpts{}).processors(64); got != 64 {
		t.Fatalf("zero Processors should take the backend default, got %d", got)
	}
	if got := (RunOpts{Processors: 8}).processors(64); got != 8 {
		t.Fatalf("explicit Processors overridden: %d", got)
	}
}

// TestParseModeRoundTrip checks that every mode survives
// ParseMode(m.String()) and that the command-line spellings resolve.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeStatic, ModeTaper, ModeSplit} {
		got, err := ParseMode(m.String())
		if err != nil {
			t.Fatalf("ParseMode(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseMode(%q) = %v, want %v", m.String(), got, m)
		}
	}
	for in, want := range map[string]Mode{
		"static": ModeStatic, "STATIC": ModeStatic,
		"taper": ModeTaper, "Taper": ModeTaper,
		"split": ModeSplit, "taper+split": ModeSplit,
	} {
		if got, err := ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("ParseMode should reject and name bad input, got %v", err)
	}
}

func TestParseModes(t *testing.T) {
	all, err := ParseModes("all")
	if err != nil || len(all) != 3 {
		t.Fatalf("ParseModes(all) = %v, %v", all, err)
	}
	list, err := ParseModes("static, split")
	if err != nil || len(list) != 2 || list[0] != ModeStatic || list[1] != ModeSplit {
		t.Fatalf("ParseModes list = %v, %v", list, err)
	}
	if _, err := ParseModes("taper,bogus"); err == nil {
		t.Fatal("ParseModes accepted an invalid entry")
	}
}

// TestRunGraphSinkDelivery checks that a Sink receives the completed
// trace with events from both backpressure paths: chunk spans and
// taper decisions, on the shared timeline across operators.
func TestRunGraphSinkDelivery(t *testing.T) {
	g := dagGraph(t, [][2]string{{"a", "b"}}, nil, "a", "b")
	bind := func(string) OpSpec { return irregularSpec(256, 3) }
	cfg := machine.DefaultConfig(16)
	var col obs.Collector
	r, err := RunGraph(cfg, g, bind, RunOpts{Processors: 16, Mode: ModeTaper, Sink: &col})
	if err != nil {
		t.Fatal(err)
	}
	tr := col.Trace
	if tr == nil {
		t.Fatal("sink never received a trace")
	}
	if tr.Backend != "sim" || tr.Workers != 16 || len(tr.Ops) != 2 {
		t.Fatalf("trace metadata: backend %q workers %d ops %v", tr.Backend, tr.Workers, tr.Ops)
	}
	if tr.Result.Makespan != r.Makespan {
		t.Fatal("trace result differs from the returned result")
	}
	var chunks, tapers int
	var maxT1 float64
	for _, e := range tr.Events {
		switch e.Kind {
		case obs.KindChunk:
			chunks++
			if e.T1 > maxT1 {
				maxT1 = e.T1
			}
		case obs.KindTaper:
			tapers++
		}
	}
	if chunks != r.Chunks {
		t.Errorf("trace has %d chunk spans, result counted %d", chunks, r.Chunks)
	}
	if tapers == 0 {
		t.Error("TAPER mode recorded no taper decisions")
	}
	if maxT1 > r.Makespan+1e-9 {
		t.Errorf("a chunk span ends at %v, after the makespan %v", maxT1, r.Makespan)
	}
}

// TestRunGraphNoSinkNoTrace checks the disabled path stays disabled.
func TestRunGraphNoSinkNoTrace(t *testing.T) {
	g := dagGraph(t, nil, nil, "a")
	bind := func(string) OpSpec { return uniformSpec(64, 1) }
	if _, err := RunGraph(machine.DefaultConfig(4), g, bind, RunOpts{Processors: 4, Mode: ModeSplit}); err != nil {
		t.Fatal(err)
	}
}

// TestRunGraphRejectsInvalidOpts checks options are validated before
// execution.
func TestRunGraphRejectsInvalidOpts(t *testing.T) {
	g := dagGraph(t, nil, nil, "a")
	bind := func(string) OpSpec { return uniformSpec(8, 1) }
	if _, err := RunGraph(machine.DefaultConfig(4), g, bind, RunOpts{Mode: Mode(9)}); err == nil {
		t.Fatal("RunGraph accepted an unknown mode")
	}
	if _, err := RunGraph(machine.DefaultConfig(4), g, bind, RunOpts{Processors: -2, Mode: ModeSplit}); err == nil {
		t.Fatal("RunGraph accepted a negative processor count")
	}
}
