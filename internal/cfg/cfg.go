// Package cfg builds a control-flow graph over mini-Fortran statements
// and provides the dominator machinery (immediate dominators, dominator
// tree, dominance frontiers) that the SSA construction and the value
// propagation of the paper's analysis pipeline (§3.1 steps 2–6) require.
package cfg

import (
	"fmt"
	"strings"

	"orchestra/internal/source"
)

// NodeKind classifies CFG nodes.
type NodeKind int

// Node kinds.
const (
	KindEntry NodeKind = iota
	KindExit
	KindBlock  // straight-line assignments and calls
	KindLoop   // do-loop header; controls the loop body
	KindBranch // if header; controls then/else
	KindJoin   // merge point after a branch or loop
)

func (k NodeKind) String() string {
	switch k {
	case KindEntry:
		return "entry"
	case KindExit:
		return "exit"
	case KindBlock:
		return "block"
	case KindLoop:
		return "loop"
	case KindBranch:
		return "branch"
	case KindJoin:
		return "join"
	}
	return "?"
}

// Node is one CFG node.
type Node struct {
	ID    int
	Kind  NodeKind
	Stmts []source.Stmt // statements of a KindBlock node
	Loop  *source.Do    // loop header statement for KindLoop
	Cond  *source.If    // branch statement for KindBranch

	Succs []*Node
	Preds []*Node
}

func (n *Node) String() string { return fmt.Sprintf("n%d(%s)", n.ID, n.Kind) }

// Graph is a complete control-flow graph.
type Graph struct {
	Entry *Node
	Exit  *Node
	Nodes []*Node

	// BodyEntry and BodyExit give, for each loop header, the entry and
	// exit nodes of its body subgraph.
	BodyEntry map[*Node]*Node
	BodyExit  map[*Node]*Node

	// LoopNode and BranchNode map statements back to their CFG nodes.
	LoopNode   map[*source.Do]*Node
	BranchNode map[*source.If]*Node
}

func (g *Graph) newNode(kind NodeKind) *Node {
	n := &Node{ID: len(g.Nodes), Kind: kind}
	g.Nodes = append(g.Nodes, n)
	return n
}

func edge(from, to *Node) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// Build constructs the CFG for a statement list.
//
// Loop shape: the loop header has two successors — the body entry
// (taken when iterations remain) and the loop exit join. The body's
// last node has a back edge to the header.
func Build(body []source.Stmt) *Graph {
	g := &Graph{
		BodyEntry:  map[*Node]*Node{},
		BodyExit:   map[*Node]*Node{},
		LoopNode:   map[*source.Do]*Node{},
		BranchNode: map[*source.If]*Node{},
	}
	g.Entry = g.newNode(KindEntry)
	g.Exit = g.newNode(KindExit)
	last := g.buildStmts(body, g.Entry)
	edge(last, g.Exit)
	return g
}

// buildStmts threads the statement list from pred and returns the node
// that control reaches after the list.
func (g *Graph) buildStmts(body []source.Stmt, pred *Node) *Node {
	cur := pred
	for _, s := range body {
		switch s := s.(type) {
		case *source.Assign, *source.CallStmt:
			if cur.Kind == KindBlock {
				cur.Stmts = append(cur.Stmts, s)
				continue
			}
			b := g.newNode(KindBlock)
			b.Stmts = []source.Stmt{s}
			edge(cur, b)
			cur = b
		case *source.Do:
			head := g.newNode(KindLoop)
			head.Loop = s
			g.LoopNode[s] = head
			edge(cur, head)
			bodyEntry := g.newNode(KindJoin)
			edge(head, bodyEntry)
			bodyExit := g.buildStmts(s.Body, bodyEntry)
			edge(bodyExit, head) // back edge
			after := g.newNode(KindJoin)
			edge(head, after)
			g.BodyEntry[head] = bodyEntry
			g.BodyExit[head] = bodyExit
			cur = after
		case *source.If:
			head := g.newNode(KindBranch)
			head.Cond = s
			g.BranchNode[s] = head
			edge(cur, head)
			after := g.newNode(KindJoin)
			thenEntry := g.newNode(KindJoin)
			edge(head, thenEntry) // successor 0: then
			thenExit := g.buildStmts(s.Then, thenEntry)
			edge(thenExit, after)
			if len(s.Else) > 0 {
				elseEntry := g.newNode(KindJoin)
				edge(head, elseEntry) // successor 1: else
				elseExit := g.buildStmts(s.Else, elseEntry)
				edge(elseExit, after)
			} else {
				edge(head, after) // successor 1: fall-through
			}
			cur = after
		default:
			panic(fmt.Sprintf("cfg: unknown statement %T", s))
		}
	}
	return cur
}

// ReversePostOrder returns the nodes reachable from Entry in reverse
// post-order (a topological order ignoring back edges).
func (g *Graph) ReversePostOrder() []*Node {
	seen := make([]bool, len(g.Nodes))
	var post []*Node
	var dfs func(n *Node)
	dfs = func(n *Node) {
		seen[n.ID] = true
		for _, s := range n.Succs {
			if !seen[s.ID] {
				dfs(s)
			}
		}
		post = append(post, n)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Dominators computes immediate dominators with the Cooper–Harvey–
// Kennedy iterative algorithm. The returned map contains every
// reachable node except Entry (whose idom is nil).
func (g *Graph) Dominators() map[*Node]*Node {
	rpo := g.ReversePostOrder()
	order := make(map[*Node]int, len(rpo))
	for i, n := range rpo {
		order[n] = i
	}
	idom := make(map[*Node]*Node, len(rpo))
	idom[g.Entry] = g.Entry

	intersect := func(a, b *Node) *Node {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, n := range rpo {
			if n == g.Entry {
				continue
			}
			var newIdom *Node
			for _, p := range n.Preds {
				if idom[p] == nil {
					continue // unprocessed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[n] != newIdom {
				idom[n] = newIdom
				changed = true
			}
		}
	}
	idom[g.Entry] = nil
	return idom
}

// DominanceFrontiers computes the dominance frontier of every node
// using the standard Cytron et al. algorithm over the idom tree.
func (g *Graph) DominanceFrontiers(idom map[*Node]*Node) map[*Node][]*Node {
	df := make(map[*Node][]*Node, len(g.Nodes))
	inDF := make(map[*Node]map[*Node]bool)
	add := func(n, w *Node) {
		if inDF[n] == nil {
			inDF[n] = map[*Node]bool{}
		}
		if !inDF[n][w] {
			inDF[n][w] = true
			df[n] = append(df[n], w)
		}
	}
	for _, n := range g.Nodes {
		if len(n.Preds) < 2 {
			continue
		}
		for _, p := range n.Preds {
			runner := p
			for runner != nil && runner != idom[n] {
				add(runner, n)
				runner = idom[runner]
			}
		}
	}
	return df
}

// Dominates reports whether a dominates b (reflexively) under idom.
func Dominates(idom map[*Node]*Node, a, b *Node) bool {
	for n := b; n != nil; n = idom[n] {
		if n == a {
			return true
		}
	}
	return false
}

// Dump renders the graph for debugging and golden tests.
func (g *Graph) Dump() string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%s ->", n)
		for _, s := range n.Succs {
			fmt.Fprintf(&b, " n%d", s.ID)
		}
		switch n.Kind {
		case KindLoop:
			fmt.Fprintf(&b, "  [do %s]", n.Loop.Var)
		case KindBranch:
			fmt.Fprintf(&b, "  [if %s]", source.FormatExpr(n.Cond.Cond))
		case KindBlock:
			fmt.Fprintf(&b, "  [%d stmts]", len(n.Stmts))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
