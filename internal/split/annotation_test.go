package split

import "testing"

func TestChainable(t *testing.T) {
	cases := []struct {
		name       string
		prod, cons *Annotation
		want       bool
	}{
		{"pointwise-pointwise", Pointwise(), Pointwise(), true},
		{"pointwise-stencil", Pointwise(), Stencil(1), true},
		{"pointwise-reduction", Pointwise(), Reduction(), true},
		{"reduction-producer", Reduction(), Pointwise(), false},
		{"all-consumer", Pointwise(), &Annotation{Read: AccessAll, Write: AccessElement}, false},
		{"nil-prod", nil, Pointwise(), false},
		{"nil-cons", Pointwise(), nil, false},
		{"zero-value", &Annotation{}, &Annotation{}, false},
	}
	for _, c := range cases {
		if got := Chainable(c.prod, c.cons); got != c.want {
			t.Errorf("%s: Chainable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestStencilNegativeHalo(t *testing.T) {
	if s := Stencil(-3); s.Halo != 0 {
		t.Errorf("negative halo kept: %d", s.Halo)
	}
	if ChainHalo(Stencil(4)) != 4 || ChainHalo(Pointwise()) != 0 || ChainHalo(nil) != 0 {
		t.Error("ChainHalo resolution wrong")
	}
}
