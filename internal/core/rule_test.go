package core

import "testing"

// TestRuleNamesDenseAndDistinct pins ruleNames to the Rule enumeration:
// every rule from RuleNone below NumRules has a name of its own, so a rule
// added without one shows up here rather than as an empty metric name or
// event tag.
func TestRuleNamesDenseAndDistinct(t *testing.T) {
	seen := make(map[string]Rule, NumRules)
	for r := RuleNone; r < NumRules; r++ {
		name := r.String()
		if name == "" {
			t.Errorf("rule %d has no name", r)
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("rules %d and %d share the name %q", prev, r, name)
		}
		seen[name] = r
	}
}
