package fuzz

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/rts"
	"orchestra/internal/source"
	"orchestra/internal/trace"
)

// TestRows pins the oracle's strength: the rows of every rung, with
// their RunOpts and flags, are exactly the cells the five hand-written
// matrices held before they became one table (recorded at f976e88),
// less the two native rows that overrode TAPER's ω, which is now fixed.
func TestRows(t *testing.T) {
	plan, err := fault.Parse("crash:1@0")
	if err != nil {
		t.Fatal(err)
	}
	// name | backend | p | mode | fault | checkSim byName flat
	want := map[string][]string{
		Base: {
			"sim/p=1/static|sim|1|static||false false false",
			"sim/p=1/TAPER|sim|1|TAPER||false false false",
			"sim/p=1/TAPER+split|sim|1|TAPER+split||true false false",
			"sim/p=3/static|sim|3|static||false false false",
			"sim/p=3/TAPER|sim|3|TAPER||false false false",
			"sim/p=3/TAPER+split|sim|3|TAPER+split||true false false",
			"sim/p=8/static|sim|8|static||false false false",
			"sim/p=8/TAPER|sim|8|TAPER||false false false",
			"sim/p=8/TAPER+split|sim|8|TAPER+split||true false false",
			"native/p=1/static|native|1|static||false false false",
			"native/p=1/TAPER|native|1|TAPER||false false false",
			"native/p=1/TAPER+split|native|1|TAPER+split||false false false",
			"native/p=2/static|native|2|static||false false false",
			"native/p=2/TAPER|native|2|TAPER||false false false",
			"native/p=2/TAPER+split|native|2|TAPER+split||false false false",
			"native/p=4/static|native|4|static||false false false",
			"native/p=4/TAPER|native|4|TAPER||false false false",
			"native/p=4/TAPER+split|native|4|TAPER+split||false false false",
		},
		Dist: {
			"dist/p=3/static|dist|3|static||false true false",
			"dist/p=3/TAPER|dist|3|TAPER||false true false",
			"dist/p=3/TAPER+split|dist|3|TAPER+split||false true false",
		},
		Faults: {
			"sim/p=4/TAPER/fault=crash:1@0|sim|4|TAPER|crash:1@0|false false false",
			"sim/p=4/TAPER+split/fault=crash:1@0|sim|4|TAPER+split|crash:1@0|false false false",
			"native/p=4/TAPER/fault=crash:1@0|native|4|TAPER|crash:1@0|false false false",
			"native/p=4/TAPER+split/fault=crash:1@0|native|4|TAPER+split|crash:1@0|false false false",
		},
		Nested: {
			"flat-native/p=4/split|native|4|TAPER+split||false false true",
			"sim/p=1/split|sim|1|TAPER+split||false false false",
			"sim/p=8/split|sim|8|TAPER+split||false false false",
			"sim/p=4/static|sim|4|static||false false false",
			"native/p=2/split|native|2|TAPER+split||false false false",
			"native/p=4/split|native|4|TAPER+split||false false false",
			"native/p=2/taper|native|2|TAPER||false false false",
		},
	}
	total := 0
	for _, rung := range Rungs {
		var p *fault.Plan
		if rung == Faults {
			p = plan
		}
		var got []string
		for _, c := range Rows(rung, p) {
			f := ""
			if c.Opts.Fault != nil {
				f = c.Opts.Fault.String()
			}
			got = append(got, fmt.Sprintf("%s|%s|%d|%s|%s|%v %v %v", c.Name, c.Backend.Name(),
				c.Opts.Processors, c.Opts.Mode, f, c.CheckSim, c.ByName, c.Flat))
			if sim, ok := c.Backend.(*rts.SimBackend); ok && sim.Cfg.Processors != c.Opts.Processors {
				t.Errorf("%s: simulated machine has %d processors", c.Name, sim.Cfg.Processors)
			}
			if c.Opts.Sink != nil || c.Opts.Ctx != nil || c.Opts.Chain != rts.ChainAuto {
				t.Errorf("%s: RunOpts %+v sets more than p, mode and fault", c.Name, c.Opts)
			}
		}
		total += len(got)
		if g, w := strings.Join(got, "\n"), strings.Join(want[rung], "\n"); g != w {
			t.Errorf("rung %s rows:\n%s\nwant:\n%s", rung, g, w)
		}
	}
	if total != 32 {
		t.Errorf("%d rows over all rungs, want 32", total)
	}
	if rows := Rows("nope", nil); rows != nil {
		t.Errorf("unknown rung has rows: %v", rows)
	}
}

// saboteur is a backend that lies: it runs the real one — on a
// tampered copy of the graph, if tamper is set — then corrupts the
// finished run through after, or disowns it with an error.
type saboteur struct {
	rts.Backend
	tamper func(*delirium.Graph) *delirium.Graph
	after  func()
	fail   bool
}

func (s saboteur) Run(g *delirium.Graph, b *rts.Bound, opts rts.RunOpts) (trace.Result, error) {
	if s.tamper != nil {
		g = s.tamper(g)
	}
	res, err := s.Backend.Run(g, b, opts)
	if err == nil && s.after != nil {
		s.after()
	}
	if err == nil && s.fail {
		err = errors.New("sabotaged")
	}
	return res, err
}

// TestOracleCatchesSabotage holds the oracle to its own claim: a wrong
// backend, fed to the loop as one more row, is caught and classified,
// and the divergence carries the schedule of a traced re-run. Every
// other test in this package only shows that correct backends pass.
func TestOracleCatchesSabotage(t *testing.T) {
	text, err := os.ReadFile("testdata/fuzz-corpus/gate-count-vs-prefix.f")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := source.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	subjects := map[string]func(*Report) *subject{
		"program": func(rep *Report) *subject { return runBaseline(&Case{Seed: 7, Prog: prog}, rep) },
		"nested":  func(rep *Report) *subject { return nestedSubject(GenNested(2), rep) },
	}
	be := sim(8)
	opts := rts.RunOpts{Processors: 8, Mode: rts.ModeSplit}

	// last is the instance of the row in flight, for the sabotage that
	// reaches into memory after the run.
	var last instance
	flipBit := func() {
		switch in := last.(type) {
		case *Instance:
			// The last version of w the program wrote.
			chain := in.low.chainA["w"]
			id := chain[len(chain)-1]
			for off, written := range in.aFlag[id] {
				if written {
					in.aVals[id][off] = math.Float64frombits(math.Float64bits(in.aVals[id][off]) ^ 1)
					return
				}
			}
			t.Fatal("w was never written")
		case nestedRun:
			a := in.Array("t0")
			a[0] = math.Float64frombits(math.Float64bits(a[0]) ^ 1)
		}
	}
	// unpipelined drops the graph's first pipelined edge altogether, so
	// the consumer no longer waits for its producer's prefix.
	unpipelined := func(g *delirium.Graph) *delirium.Graph {
		cp := *g
		cp.Edges = nil
		dropped := false
		for _, e := range g.Edges {
			if e.Pipelined && !dropped {
				dropped = true
				continue
			}
			cp.Edges = append(cp.Edges, e)
		}
		if !dropped {
			t.Fatal("graph has no pipelined edge to drop")
		}
		return &cp
	}

	for _, tc := range []struct {
		subject, name string
		row           Config
		kind, detail  string
	}{
		{"program", "error", Config{Backend: saboteur{Backend: be, fail: true}, Opts: opts}, "backend-error", "sabotaged"},
		{"program", "bitflip", Config{Backend: saboteur{Backend: be, after: flipBit}, Opts: opts}, "backend-value", "array w["},
		{"program", "ungated", Config{Backend: saboteur{Backend: be, tamper: unpipelined}, Opts: opts, CheckSim: true}, "order-violation", "pipelined producer"},
		{"nested", "error", Config{Backend: saboteur{Backend: be, fail: true}, Opts: opts}, "backend-error", "sabotaged"},
		{"nested", "bitflip", Config{Backend: saboteur{Backend: be, after: flipBit}, Opts: opts}, "backend-value", "digest"},
	} {
		t.Run(tc.subject+"/"+tc.name, func(t *testing.T) {
			rep := &Report{}
			s := subjects[tc.subject](rep)
			if s == nil {
				t.Fatalf("no subject: %s", rep)
			}
			bind := s.bind
			s.bind = func(cfg Config) (*rts.Bound, instance, error) {
				b, in, err := bind(cfg)
				last = in
				return b, in, err
			}
			tc.row.Name = "sabotage/" + tc.name
			if _, ok := s.check(tc.row, rep); ok {
				t.Fatal("sabotaged row passed")
			}
			found := false
			for _, d := range rep.Divs {
				if d.Config != tc.row.Name {
					t.Errorf("divergence filed under %q", d.Config)
				}
				if d.Trace == nil {
					t.Errorf("%s carries no trace", d)
				}
				found = found || d.Kind == tc.kind && strings.Contains(d.Detail, tc.detail)
			}
			if !found {
				t.Fatalf("want a %s divergence mentioning %q, got:\n%s", tc.kind, tc.detail, rep)
			}
		})
	}
}
