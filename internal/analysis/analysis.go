// Package analysis implements esrvet, the project-specific static
// analyzer for the ESR codebase.
//
// The paper's correctness argument rests on invariants the Go compiler
// cannot see: every lock.Manager acquisition must be released on every
// return path (strict 2PL's shrinking phase), COMMU's relaxed WU/WU
// compatibility (Table 3) is only sound for operations registered as
// commutative, and the asynchronous-propagation results are only
// trustworthy if the simulator is deterministic.  Each analyzer in this
// package machine-checks one of those invariants:
//
//	A1 lock-pairing      — lock.Manager Acquire/TryAcquire matched by
//	                       ReleaseAll (and sync.Mutex Lock by Unlock) on
//	                       all return paths, defer-aware.
//	A2 mutex-by-value    — no sync.Mutex/RWMutex (or struct containing
//	                       one, e.g. lock.Manager) copied by value.
//	A3 commu-registration — every operation kind declared in internal/op
//	                       appears in the commutativity relation and has
//	                       a compensation inverse (Table 3 soundness).
//	A4 sim-determinism   — time.Now/Since/Until and math/rand global
//	                       functions are banned inside internal/sim,
//	                       internal/network and internal/tabular, so
//	                       simulations and table regeneration stay
//	                       reproducible.
//	A5 goroutine-leak    — goroutines spawned in internal/network and
//	                       internal/queue must have a visible join or
//	                       cancellation (WaitGroup.Done, done-channel
//	                       receive, or ctx.Done).
//	A6 metricreg         — a function that emits trace events (Record*
//	                       on a trace ring) must also touch a metrics
//	                       instrument, so every traced pipeline stage
//	                       is visible to /metrics and esrtop too.
//	A7 stripeaccess      — the sharded stores' stripe arrays may only be
//	                       resolved through the stripe/forEachStripe
//	                       accessors, so the hash-to-stripe mapping
//	                       stays single-sourced.
//	A8 lockheld          — no blocking operation (transport
//	                       Send/Call/SendBatch, file Sync/fsync,
//	                       unbuffered channel send/receive, time.Sleep)
//	                       while a lock.Manager acquisition or stripe
//	                       mutex may be held; interprocedural, so a
//	                       lock held by a caller poisons its callees'
//	                       blocking sites too.
//	A9 atomicmix         — a field or package variable whose address is
//	                       ever passed to sync/atomic must never be
//	                       read or written plainly anywhere in the
//	                       module (mixed access is a data race the race
//	                       detector only catches when both sides run).
//	A10 errdrop          — errors returned by WAL/queue/transport
//	                       mutating calls (Append, Sync, Enqueue, Ack,
//	                       Send, Call, ...) must be consumed, not
//	                       discarded with _ or an ignored return.
//	A11 querylock        — query-path functions (engine Query* methods,
//	                       core.ReadAtSite, and everything they reach
//	                       in the static call graph) must
//	                       never acquire lock.Manager locks: the unified
//	                       read path serves queries from lock-free
//	                       snapshots gated by SAFETIME watermarks.  The
//	                       coherency baselines are exempt by design.
//
// Rules A1 and A8 are interprocedural: they run on the dataflow engine
// in internal/analysis/flow (per-function CFGs, a static call graph,
// and a worklist fixpoint over per-function lock summaries — see
// lockflow.go).  The remaining rules are per-package (Analyzer.Run) or
// whole-module (Analyzer.RunModule) AST/type walks.
//
// A finding can be suppressed with a trailing comment directive on the
// offending line (or the line above it):
//
//	//esrvet:ignore A1 reason why this is safe
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string // "A1".."A7"
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one esrvet rule.  Exactly one of Run and RunModule is
// set: Run analyzes one package at a time, RunModule sees the whole
// load at once (for interprocedural and cross-package rules).
type Analyzer struct {
	// Rule is the stable rule ID ("A1".."A11").
	Rule string
	// Name is a short slug (used in -only filters).
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one typed package.
	Run func(p *Package) []Diagnostic
	// RunModule analyzes the whole module.
	RunModule func(m *Module) []Diagnostic
}

// All returns every analyzer in rule order.
func All() []*Analyzer {
	return []*Analyzer{
		LockPairing,
		MutexByValue,
		CommuRegistration,
		SimDeterminism,
		GoroutineLeak,
		MetricRegistration,
		StripeAccess,
		LockHeldBlocking,
		AtomicMix,
		ErrDrop,
		QueryLockFree,
	}
}

// RunAll applies every analyzer to every package, filters findings
// suppressed by //esrvet:ignore directives, and returns the remainder
// sorted by position.  Module-level analyzers run once over the whole
// package set; suppression directives from every file apply to them
// too.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	ignores := make(ignoreSet)
	for _, p := range pkgs {
		ignoreDirectivesInto(ignores, p)
	}
	mod := NewModule(pkgs)
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		for _, d := range a.RunModule(mod) {
			if ignores.suppressed(d) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			for _, d := range a.Run(p) {
				if ignores.suppressed(d) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return out
}

// ignoreSet records, per file and line, which rules are suppressed.
type ignoreSet map[string]map[int]map[string]bool

func (s ignoreSet) suppressed(d Diagnostic) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	rules := byLine[d.Pos.Line]
	return rules != nil && (rules["all"] || rules[d.Rule])
}

// ignoreDirectives collects //esrvet:ignore comments.  A directive
// suppresses the named rules (space-separated; "all" suppresses every
// rule) on its own line and on the following line, so it can trail the
// offending statement or sit on the line above it.
func ignoreDirectives(p *Package) ignoreSet {
	set := make(ignoreSet)
	ignoreDirectivesInto(set, p)
	return set
}

// ignoreDirectivesInto accumulates one package's directives into an
// existing set (keyed by filename, so packages never collide).
func ignoreDirectivesInto(set ignoreSet, p *Package) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//esrvet:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					set[pos.Filename] = byLine
				}
				rules := strings.Fields(text)
				if len(rules) == 0 {
					rules = []string{"all"}
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					m := byLine[line]
					if m == nil {
						m = make(map[string]bool)
						byLine[line] = m
					}
					for _, r := range rules {
						if strings.HasPrefix(r, "A") || r == "all" {
							m[r] = true
						}
					}
				}
			}
		}
	}
}

// diag builds a Diagnostic at a node position.
func (p *Package) diag(rule string, at ast.Node, format string, args ...any) Diagnostic {
	return Diagnostic{
		Pos:     p.Fset.Position(at.Pos()),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}
