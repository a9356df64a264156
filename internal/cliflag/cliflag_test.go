package cliflag

import (
	"flag"
	"io"
	"strings"
	"testing"

	"orchestra/internal/rts"
)

func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestModesFlag(t *testing.T) {
	cases := []struct {
		args    []string
		want    []rts.Mode
		wantErr bool
	}{
		{nil, []rts.Mode{rts.ModeSplit}, false},
		{[]string{"-mode", "static"}, []rts.Mode{rts.ModeStatic}, false},
		{[]string{"-mode", "taper"}, []rts.Mode{rts.ModeTaper}, false},
		{[]string{"-mode", "static,split"}, []rts.Mode{rts.ModeStatic, rts.ModeSplit}, false},
		{[]string{"-mode", "all"}, []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit}, false},
		{[]string{"-mode", "bogus"}, nil, true},
		{[]string{"-mode", ""}, nil, true},
	}
	for _, c := range cases {
		fs := newFS()
		v := Modes(fs, "mode", "split", "usage")
		err := fs.Parse(c.args)
		if c.wantErr {
			if err == nil {
				t.Errorf("%v: parse succeeded, want error", c.args)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		got := v.Modes()
		if len(got) != len(c.want) {
			t.Errorf("%v: modes = %v, want %v", c.args, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%v: modes[%d] = %v, want %v", c.args, i, got[i], c.want[i])
			}
		}
	}
}

func TestModesSingle(t *testing.T) {
	fs := newFS()
	v := Modes(fs, "mode", "split", "usage")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	m, err := v.Single()
	if err != nil || m != rts.ModeSplit {
		t.Fatalf("Single() = %v, %v; want split", m, err)
	}
	if err := v.Set("all"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Single(); err == nil {
		t.Fatal("Single() on a mode list succeeded, want error")
	}
}

func TestBackendFlag(t *testing.T) {
	cases := []struct {
		args         []string
		wantName     string
		wantMeasured bool
		wantErr      bool
	}{
		{nil, "sim", false, false},
		{[]string{"-backend", "sim"}, "sim", false, false},
		{[]string{"-backend", "native"}, "native", true, false},
		{[]string{"-backend", "dist"}, "dist", true, false},
		{[]string{"-backend", "gpu"}, "", false, true},
		{[]string{"-backend", ""}, "", false, true},
		{[]string{"-backend", "sim:heartbeat"}, "", false, true}, // backends take no options
	}
	for _, c := range cases {
		fs := newFS()
		v := Backend(fs, "backend", "sim", "usage")
		err := fs.Parse(c.args)
		if c.wantErr {
			if err == nil {
				t.Errorf("%v: parse succeeded, want error", c.args)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		if v.Name() != c.wantName || v.Measured() != c.wantMeasured {
			t.Errorf("%v: name=%q measured=%v, want %q/%v",
				c.args, v.Name(), v.Measured(), c.wantName, c.wantMeasured)
		}
		be, err := v.New()
		if err != nil {
			t.Errorf("%v: New: %v", c.args, err)
			continue
		}
		if be.Name() != c.wantName {
			t.Errorf("%v: backend.Name() = %q, want %q", c.args, be.Name(), c.wantName)
		}
	}
}

// TestBackendFlagBadOption checks that a backend name carrying an
// option suffix is rejected at parse time: no backend takes options.
func TestBackendFlagBadOption(t *testing.T) {
	fs := newFS()
	v := Backend(fs, "backend", "sim", "usage")
	err := fs.Parse([]string{"-backend", "dist:warp=9"})
	if err == nil {
		t.Fatal("backend option accepted")
	}
	if !strings.Contains(err.Error(), "dist:warp=9") {
		t.Fatalf("error %q does not name the bad value", err)
	}
	if v.Name() != "sim" {
		t.Fatalf("backend %q after a rejected value, want the default sim", v.Name())
	}
}

func TestFaultFlag(t *testing.T) {
	cases := []struct {
		args      []string
		wantNil   bool
		wantErr   bool
		errSubstr string
	}{
		{nil, true, false, ""},
		{[]string{"-fault", ""}, true, false, ""},
		{[]string{"-fault", "crash:0@1"}, false, false, ""},
		{[]string{"-fault", "stall:1@0:0.5"}, false, false, ""},
		{[]string{"-fault", "explode:3"}, true, true, "explode"},
	}
	for _, c := range cases {
		fs := newFS()
		v := Fault(fs, "fault", "usage")
		err := fs.Parse(c.args)
		if c.wantErr {
			if err == nil {
				t.Errorf("%v: parse succeeded, want error", c.args)
			} else if c.errSubstr != "" && !strings.Contains(err.Error(), c.errSubstr) {
				t.Errorf("%v: error %q does not mention %q", c.args, err, c.errSubstr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v: %v", c.args, err)
			continue
		}
		if (v.Plan() == nil) != c.wantNil {
			t.Errorf("%v: plan nil=%v, want %v", c.args, v.Plan() == nil, c.wantNil)
		}
	}
}

func TestBadDefaultsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { Modes(newFS(), "mode", "bogus", "") },
		func() { Backend(newFS(), "backend", "bogus", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad default did not panic")
				}
			}()
			f()
		}()
	}
}
