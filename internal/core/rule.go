package core

// Rule tags a transition with the reduction or continuation rule that
// fired — Figure 5 plus the §8–10 variant rules. The machine records the
// rule of its most recent Step; the runner counts transitions per rule and
// the event stream carries the tag, so a space profile can be read as
// "which rules were running when".
type Rule uint8

const (
	// RuleNone is the zero tag: no transition has fired (the initial
	// configuration, or a stuck step).
	RuleNone Rule = iota
	// Expression rules (Figure 5, left column).
	RuleConst  // (quote c) evaluates to its constant
	RuleVar    // an identifier evaluates to its R-value
	RuleLambda // a lambda evaluates to a closure tagged by a fresh location
	RuleIf     // an if pushes a select continuation
	RuleSet    // a set! pushes an assign continuation
	RuleCall   // a call pushes a push continuation for its subexpressions
	// Continuation rules (Figure 5, right column, and the §8 call variants).
	RuleHaltEnv     // (v, ρ', halt) → (v, { }, halt): the final env drop
	RuleSelect      // a select continuation branches on the test value
	RuleAssign      // an assign continuation writes the store
	RulePushNext    // a push continuation advances to the next subexpression
	RulePushCall    // all subexpressions done: deliver operator to a call cont
	RuleApplyTail   // closure call as a goto (Z_tail family)
	RuleApplyReturn // closure call pushing return:(ρ',κ) (Z_gc, MTA)
	RuleApplyStack  // closure call pushing return:(A,ρ',κ) (Z_stack)
	RuleApplyEscape // invocation of a captured continuation
	RuleApplyPrimop // application of a standard procedure
	RuleReturn      // return:(ρ',κ) restores ρ'
	RuleReturnStack // return:(A,ρ',κ) deletes A and restores ρ'
	// Contract-monitoring rules (the naive and spaceff machines; erasing
	// machines fire only the first two).
	RuleMon       // (mon ctc e) pushes a mon-ctc continuation for the contract
	RuleMonCtc    // contract value arrived: erase, or push mon-attach
	RuleMonAttach // monitored value arrived: wrap in the contract (or check it)
	RuleMonDom    // a guarded call checks its domain contracts
	RuleMonCod    // a result reached the pending codomain checks
	RuleMonChk    // a flat predicate answered for a checked value

	// NumRules sizes dense per-rule accounting arrays.
	NumRules
)

var ruleNames = [NumRules]string{
	RuleNone:        "none",
	RuleConst:       "const",
	RuleVar:         "var",
	RuleLambda:      "lambda",
	RuleIf:          "if",
	RuleSet:         "set!",
	RuleCall:        "call",
	RuleHaltEnv:     "halt-env",
	RuleSelect:      "select",
	RuleAssign:      "assign",
	RulePushNext:    "push-next",
	RulePushCall:    "push-call",
	RuleApplyTail:   "apply-tail",
	RuleApplyReturn: "apply-return",
	RuleApplyStack:  "apply-stack",
	RuleApplyEscape: "apply-escape",
	RuleApplyPrimop: "apply-primop",
	RuleReturn:      "return",
	RuleReturnStack: "return-stack",
	RuleMon:         "mon",
	RuleMonCtc:      "mon-ctc",
	RuleMonAttach:   "mon-attach",
	RuleMonDom:      "mon-dom",
	RuleMonCod:      "mon-cod",
	RuleMonChk:      "mon-chk",
}

// String is the stable tag used in metric names and the event stream.
func (r Rule) String() string {
	if int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return "unknown"
}
