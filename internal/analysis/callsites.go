package analysis

import (
	"fmt"
	"sort"
	"strings"

	"orchestra/internal/source"
	"orchestra/internal/ssa"
)

// CallSite records one call site found in the program, together with
// the group it was assigned by call-site analysis (§3.1 step 1). The
// paper classifies sites "into groups based on profile information and
// argument characteristics: call sites that represent a significant
// amount of computation will only be grouped with others that have the
// same aliasing pattern and constant values."
//
// Without profiles at compile time, loop nesting depth stands in for
// significance: a call at depth >= 2 is considered hot and grouped by
// the full (name, aliasing pattern, constant arguments) key; shallower
// calls group by name and arity alone.
type CallSite struct {
	Name  string
	Stmt  source.Stmt // enclosing statement
	Args  []source.Expr
	Depth int    // loop nesting depth
	Hot   bool   // considered significant
	Group string // grouping key
}

// collectCallSites walks the program gathering function calls (in
// expressions) and subroutine calls (statements) and assigns groups.
func collectCallSites(p *source.Program, in *ssa.Info) []CallSite {
	var sites []CallSite

	var walkBody func(ss []source.Stmt, depth int)
	collectExpr := func(s source.Stmt, e source.Expr, depth int) {
		source.WalkExpr(e, func(x source.Expr) {
			if fc, ok := x.(*source.FuncCall); ok {
				sites = append(sites, makeSite(p, in, s, fc.Name, fc.Args, depth))
			}
		})
	}
	walkBody = func(ss []source.Stmt, depth int) {
		for _, s := range ss {
			switch s := s.(type) {
			case *source.Assign:
				collectExpr(s, s.LHS, depth)
				collectExpr(s, s.RHS, depth)
			case *source.CallStmt:
				sites = append(sites, makeSite(p, in, s, s.Name, s.Args, depth))
				for _, a := range s.Args {
					collectExpr(s, a, depth)
				}
			case *source.Do:
				collectExpr(s, s.Where, depth)
				for _, r := range s.Ranges {
					collectExpr(s, r.Lo, depth)
					collectExpr(s, r.Hi, depth)
					collectExpr(s, r.Step, depth)
				}
				walkBody(s.Body, depth+1)
			case *source.If:
				collectExpr(s, s.Cond, depth)
				walkBody(s.Then, depth)
				walkBody(s.Else, depth)
			}
		}
	}
	walkBody(p.Body, 0)
	return sites
}

func makeSite(p *source.Program, in *ssa.Info, s source.Stmt, name string, args []source.Expr, depth int) CallSite {
	cs := CallSite{Name: name, Stmt: s, Args: args, Depth: depth, Hot: depth >= 2}
	if cs.Hot {
		cs.Group = fmt.Sprintf("%s/%s/%s", name, aliasPattern(p, args), constPattern(in, s, args))
	} else {
		cs.Group = fmt.Sprintf("%s/%d", name, len(args))
	}
	return cs
}

// aliasPattern encodes which arguments refer to the same aggregate: two
// call sites with different sharing among their array arguments must
// not share a summary.
func aliasPattern(p *source.Program, args []source.Expr) string {
	// Map each aggregate argument to the index of its first occurrence.
	firstUse := map[string]int{}
	parts := make([]string, len(args))
	for i, a := range args {
		name := aggregateName(p, a)
		if name == "" {
			parts[i] = "."
			continue
		}
		if j, ok := firstUse[name]; ok {
			parts[i] = fmt.Sprintf("=%d", j)
		} else {
			firstUse[name] = i
			parts[i] = "a"
		}
	}
	return strings.Join(parts, "")
}

// aggregateName returns the array name an argument references, or "".
func aggregateName(p *source.Program, a source.Expr) string {
	switch a := a.(type) {
	case *source.Ident:
		if d := p.Decl(a.Name); d != nil && d.IsArray() {
			return a.Name
		}
	case *source.ArrayRef:
		return a.Name
	}
	return ""
}

// constPattern encodes which arguments are compile-time constants and
// their values.
func constPattern(in *ssa.Info, s source.Stmt, args []source.Expr) string {
	env, recorded := in.AtStmt[s]
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = "?"
		if !recorded {
			continue
		}
		if x, ok := in.TranslateExpr(a, env); ok {
			if c, isConst := x.IsConst(); isConst {
				parts[i] = fmt.Sprintf("%d", c)
			}
		}
	}
	return strings.Join(parts, ",")
}

// Groups returns the distinct call-site groups, sorted, with their
// member counts.
func Groups(sites []CallSite) map[string]int {
	out := map[string]int{}
	for _, s := range sites {
		out[s.Group]++
	}
	return out
}

// GroupKeys returns the sorted group names.
func GroupKeys(sites []CallSite) []string {
	g := Groups(sites)
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
