package delirium

import (
	"strings"
	"testing"
)

func buildSample(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph("sample")
	for _, n := range []*Node{
		{Name: "A", Kind: Par, Tasks: "n"},
		{Name: "BI", Kind: Par, Tasks: "n"},
		{Name: "BD", Kind: Par, Tasks: "n"},
		{Name: "BM", Kind: Par, Tasks: "n"},
	} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&Edge{From: "A", To: "BD", Bytes: 8, PerTask: true})
	g.AddEdge(&Edge{From: "BI", To: "BM"})
	g.AddEdge(&Edge{From: "BD", To: "BM"})
	return g
}

func TestValidateOK(t *testing.T) {
	g := buildSample(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateNode(t *testing.T) {
	g := NewGraph("g")
	if err := g.AddNode(&Node{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{Name: "x"}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestValidateUndeclared(t *testing.T) {
	g := NewGraph("g")
	if err := g.AddNode(&Node{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(&Edge{From: "a", To: "ghost"})
	if err := g.Validate(); err == nil {
		t.Fatal("undeclared edge target accepted")
	}
}

func TestValidateCycle(t *testing.T) {
	g := NewGraph("g")
	_ = g.AddNode(&Node{Name: "a"})
	_ = g.AddNode(&Node{Name: "b"})
	g.AddEdge(&Edge{From: "a", To: "b"})
	g.AddEdge(&Edge{From: "b", To: "a"})
	if err := g.Validate(); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestCarriedSelfLoopAllowed(t *testing.T) {
	g := NewGraph("g")
	_ = g.AddNode(&Node{Name: "ad", Kind: Par})
	g.AddEdge(&Edge{From: "ad", To: "ad", Carried: true})
	if err := g.Validate(); err != nil {
		t.Fatalf("carried self loop rejected: %v", err)
	}
	// Non-carried self loop rejected.
	g2 := NewGraph("g")
	_ = g2.AddNode(&Node{Name: "x"})
	g2.AddEdge(&Edge{From: "x", To: "x"})
	if err := g2.Validate(); err == nil {
		t.Fatal("plain self loop accepted")
	}
}

func TestTopoOrder(t *testing.T) {
	g := buildSample(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Name] = i
	}
	if pos["A"] >= pos["BD"] || pos["BD"] >= pos["BM"] || pos["BI"] >= pos["BM"] {
		t.Fatalf("order violates edges: %v", pos)
	}
}

func TestLevels(t *testing.T) {
	g := buildSample(t)
	levels, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// Level 0: A and BI (concurrent — the paper's headline structure);
	// level 1: BD; level 2: BM.
	if len(levels) != 3 {
		t.Fatalf("levels = %d", len(levels))
	}
	names := func(ns []*Node) string {
		var s []string
		for _, n := range ns {
			s = append(s, n.Name)
		}
		return strings.Join(s, ",")
	}
	if names(levels[0]) != "A,BI" {
		t.Fatalf("level 0 = %s", names(levels[0]))
	}
	if names(levels[1]) != "BD" || names(levels[2]) != "BM" {
		t.Fatalf("levels = %s | %s", names(levels[1]), names(levels[2]))
	}
}

func TestPredsSuccs(t *testing.T) {
	g := buildSample(t)
	if p := g.Preds("BM"); len(p) != 2 {
		t.Fatalf("preds(BM) = %v", p)
	}
	if s := g.Succs("A"); len(s) != 1 || s[0] != "BD" {
		t.Fatalf("succs(A) = %v", s)
	}
}

func TestInOutEdges(t *testing.T) {
	g := buildSample(t)
	g.AddEdge(&Edge{From: "BM", To: "BM", Carried: true})
	in := g.InEdges("BM")
	if len(in) != 2 {
		t.Fatalf("InEdges(BM) = %d edges, want 2 (carried excluded)", len(in))
	}
	for _, e := range in {
		if e.To != "BM" || e.Carried {
			t.Fatalf("InEdges(BM) returned %+v", e)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := buildSample(t)
	g.AddEdge(&Edge{From: "BD", To: "BD", Carried: true})
	// Mark one edge pipelined and compiler-proved chainable, so the
	// round trip covers the chain attribute too.
	g.Edges[0].Pipelined = true
	g.Edges[0].Chain = true
	text := g.Encode()
	g2, err := Decode(text)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, text)
	}
	if g2.Encode() != text {
		t.Fatalf("round trip mismatch:\n%s\n---\n%s", text, g2.Encode())
	}
	if g2.Node("BI") == nil || g2.Node("BI").Kind != Par {
		t.Fatal("node attributes lost")
	}
	var carried, perTask, chain bool
	for _, e := range g2.Edges {
		if e.Carried {
			carried = true
		}
		if e.PerTask && e.Bytes == 8 {
			perTask = true
		}
		if e.Chain {
			if !e.Pipelined {
				t.Fatal("chain attribute decoded on a non-pipelined edge")
			}
			chain = true
		}
	}
	if !carried || !perTask || !chain {
		t.Fatal("edge attributes lost")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"node x\n",                       // node before graph
		"graph g\nnode\n",                // missing name
		"graph g\nnode a zzz=1\n",        // unknown attr
		"graph g\nedge a b\n",            // malformed edge
		"graph g\nnode a\nedge a -> b\n", // undeclared
		"graph g\nnode a\nnode a\n",      // duplicate
		"graph g\nwhat\n",                // unknown directive
		"graph g\nnode a\nedge a -> a\n", // plain self loop
	}
	for _, src := range cases {
		if _, err := Decode(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestDecodeComments(t *testing.T) {
	g, err := Decode("graph g # hello\nnode a kind=par tasks=10 # a node\nnode b\nedge a -> b # dep\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.Node("a").Tasks != "10" {
		t.Fatal("tasks lost")
	}
}

func TestCriticalPath(t *testing.T) {
	g := buildSample(t)
	w := Weights{"A": 10, "BI": 3, "BD": 5, "BM": 2}
	path, total, err := g.CriticalPath(w)
	if err != nil {
		t.Fatal(err)
	}
	// A(10) -> BD(5) -> BM(2) = 17, heavier than BI(3) -> BM.
	if total != 17 {
		t.Fatalf("critical path weight = %v, want 17", total)
	}
	want := []string{"A", "BD", "BM"}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestCriticalPathIgnoresCarried(t *testing.T) {
	g := NewGraph("g")
	_ = g.AddNode(&Node{Name: "ad"})
	g.AddEdge(&Edge{From: "ad", To: "ad", Carried: true})
	_, total, err := g.CriticalPath(Weights{"ad": 4})
	if err != nil || total != 4 {
		t.Fatalf("total = %v err = %v", total, err)
	}
}

func TestSummarize(t *testing.T) {
	g := buildSample(t)
	g.AddEdge(&Edge{From: "BD", To: "BD", Carried: true})
	g.Edges[0].Pipelined = true
	st, err := g.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 4 || st.Edges != 4 || st.PipelinedEdges != 1 || st.CarriedEdges != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Levels != 3 || st.MaxWidth != 2 {
		t.Fatalf("levels/width = %d/%d", st.Levels, st.MaxWidth)
	}
	if st.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestToDot(t *testing.T) {
	g := buildSample(t)
	g.Node("BI").Comment = "CI"
	g.Edges[0].Pipelined = true
	g.AddEdge(&Edge{From: "BD", To: "BD", Carried: true})
	dot := g.ToDot()
	for _, want := range []string{"digraph", "rankdir=LR", `"BI"`, "palegreen",
		"style=dashed", "style=dotted", `"A" -> "BD"`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}
