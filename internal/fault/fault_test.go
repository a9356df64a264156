package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseStringRoundTrip(t *testing.T) {
	specs := []string{
		"crash:1@2",
		"stall:2@3:0.05",
		"slow:0@0:4",
		"delay:0.5",
		"loss:0.25",
		"seed:7,deadline:0.01,crash:1@2,stall:2@0:0.003,slow:3@1:2.5,delay:0.1,loss:0.01",
	}
	for _, spec := range specs {
		p, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		got := p.String()
		if got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
		p2, err := Parse(got)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", got, err)
		}
		if p2.String() != got {
			t.Errorf("round trip unstable: %q -> %q", got, p2.String())
		}
	}
}

func TestParseEmpty(t *testing.T) {
	p, err := Parse("  ")
	if err != nil || p != nil {
		t.Fatalf("Parse(blank) = %v, %v; want nil, nil", p, err)
	}
	if (*Plan)(nil).String() != "" {
		t.Errorf("nil plan should render empty")
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"explode:1@2",  // unknown kind
		"crash:1",      // missing trigger
		"crash:1@2:9",  // crash takes no parameter
		"stall:1@2",    // stall needs a duration
		"stall:1@2:-1", // negative duration
		"slow:1@2:0.5", // factor below 1
		"loss:1.5",     // probability out of range
		"delay:-1",     // negative delay
		"crash:-1@0",   // negative worker
		"deadline:0",   // non-positive deadline
		"seed:x",       // non-numeric seed
		// Non-finite numbers parse as floats but describe no run.
		"delay:NaN",
		"delay:Inf",
		"loss:NaN",
		"stall:0@1:NaN",
		"stall:0@1:Inf",
		"slow:0@1:NaN",
		"slow:0@1:+Inf",
		"deadline:NaN",
		"deadline:Inf",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted invalid spec", spec)
		}
	}
}

func TestValidateSurvivor(t *testing.T) {
	p, err := Parse("crash:0@0,stall:1@0:0.01")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(2); err == nil {
		t.Error("plan crashing/stalling every worker should not validate")
	}
	if err := p.Validate(3); err != nil {
		t.Errorf("plan with a free worker rejected: %v", err)
	}
	if err := p.Validate(1); err == nil {
		t.Error("crash of the only worker should not validate")
	}
	slowOnly, _ := Parse("slow:0@0:2")
	if err := slowOnly.Validate(1); err != nil {
		t.Errorf("slow-only plan should validate on one worker: %v", err)
	}
	oob, _ := Parse("crash:5@0")
	if err := oob.Validate(2); err == nil {
		t.Error("out-of-range worker should not validate")
	}
}

func TestRandomAlwaysSurvivable(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			p := Random(seed, workers)
			if err := p.Validate(workers); err != nil {
				t.Fatalf("Random(%d, %d) invalid: %v\nplan: %s", seed, workers, err, p)
			}
		}
	}
}

func TestBeginTriggerSemantics(t *testing.T) {
	p, err := Parse("crash:0@2,stall:1@1:0.5,slow:2@1:3")
	if err != nil {
		t.Fatal(err)
	}
	x := NewExec(p, 3)

	// Worker 0: two clean chunks, then a sticky crash.
	for i := 0; i < 2; i++ {
		if d := x.Begin(0); d.Crash || d.Stall != 0 || d.Slow != 0 {
			t.Fatalf("worker 0 chunk %d: unexpected decision %+v", i, d)
		}
	}
	if d := x.Begin(0); !d.Crash || !d.Fresh {
		t.Fatalf("worker 0 should crash, fresh, at its third chunk boundary, got %+v", d)
	}
	if d := x.Begin(0); !d.Crash || d.Fresh {
		t.Fatalf("crash must be sticky and fresh only once, got %+v", d)
	}
	if !x.Crashed(0) || x.Crashed(1) {
		t.Fatal("Crashed() disagrees with decisions")
	}

	// Worker 1: one clean chunk, one stall (consumed), then clean.
	if d := x.Begin(1); d.Stall != 0 {
		t.Fatal("worker 1 stalled too early")
	}
	if d := x.Begin(1); d.Stall != 0.5 {
		t.Fatalf("worker 1 expected 0.5 stall, got %+v", x.Begin(1))
	}
	if d := x.Begin(1); d.Stall != 0 || d.Crash {
		t.Fatalf("stall must fire once, got %+v", d)
	}

	// Worker 2: slow activates at the second chunk and persists.
	if d := x.Begin(2); d.Slow != 0 {
		t.Fatal("worker 2 slowed too early")
	}
	for i := 0; i < 3; i++ {
		if d := x.Begin(2); d.Slow != 3 || d.Fresh != (i == 0) {
			t.Fatalf("worker 2 chunk %d: want slow ×3, fresh only first, got %+v", i, d)
		}
	}
}

func TestNilExecIsFree(t *testing.T) {
	var x *Exec
	if d := x.Begin(0); d.Crash || d.Stall != 0 || d.Slow != 0 {
		t.Fatal("nil Exec must decide nothing")
	}
	if got := x.MsgCost(2.5); got != 2.5 {
		t.Fatalf("nil Exec perturbed a message: %v", got)
	}
	if x.Deadline() != DefaultDeadline {
		t.Fatal("nil Exec deadline")
	}
}

func TestMsgCost(t *testing.T) {
	p, err := Parse("delay:0.5")
	if err != nil {
		t.Fatal(err)
	}
	x := NewExec(p, 1)
	if got := x.MsgCost(2); got != 3 {
		t.Fatalf("delay:0.5 on base 2 = %v, want 3", got)
	}
	// Loss adds a retransmission sometimes; cost is always >= the
	// delayed base and deterministic for a fixed seed.
	lp, err := Parse("seed:3,loss:0.5")
	if err != nil {
		t.Fatal(err)
	}
	a := NewExec(lp, 1)
	b := NewExec(lp, 1)
	sawRetransmit := false
	for i := 0; i < 64; i++ {
		ca, cb := a.MsgCost(1), b.MsgCost(1)
		if ca != cb {
			t.Fatal("loss perturbation is not deterministic for a fixed seed")
		}
		if ca < 1 {
			t.Fatalf("message got cheaper: %v", ca)
		}
		if ca == 2 {
			sawRetransmit = true
		}
	}
	if !sawRetransmit {
		t.Fatal("loss:0.5 never retransmitted in 64 messages")
	}
}

func TestPlanStringNamesKinds(t *testing.T) {
	for k, want := range map[Kind]string{Crash: "crash", Stall: "stall", Slow: "slow", MsgDelay: "delay", MsgLoss: "loss"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "?") {
		t.Error("unknown kind should render as ?")
	}
}

// FuzzParse checks the -fault parser on arbitrary specs: it never
// panics, every accepted plan renders back to a spec that re-parses to
// the same plan, and every number in an accepted plan is finite. The
// seeds are the specs the CI workflow, the README and orchrun's doc
// pass, a few random survivable plans, and the non-finite rejects.
// Run the seeds alone with `go test ./internal/fault -run FuzzParse`;
// explore with `go test ./internal/fault -run XXX -fuzz FuzzParse`.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"crash:0@1,delay:0.5",
		"crash:1@0,stall:2@1:0.005,deadline:0.005",
		"crash:0@1,deadline:0.005",
		"crash:0@1,stall:2@0:0.01,delay:0.5,loss:0.2",
		"crash:0@1,deadline:0.01",
		"seed:7,slow:3@1:2.5",
		"delay:NaN",
		"stall:0@1:Inf",
		"",
		",",
	} {
		f.Add(spec)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(Random(seed, 4).String())
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		if p != nil {
			finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
			if !finite(p.Deadline) {
				t.Fatalf("Parse(%q) accepted deadline %v", spec, p.Deadline)
			}
			for _, a := range p.Actions {
				if !finite(a.Duration) || !finite(a.Factor) || !finite(a.Prob) || !finite(a.Delay) {
					t.Fatalf("Parse(%q) accepted non-finite action %+v", spec, a)
				}
			}
			if reflect.DeepEqual(*p, Plan{}) {
				// A plan that sets nothing renders empty, and the empty
				// spec is the nil plan.
				p = nil
			}
		}
		back := p.String()
		q, err := Parse(back)
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not re-parse: %v", spec, back, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("Parse(%q) = %+v renders %q, which re-parses to %+v", spec, p, back, q)
		}
	})
}
