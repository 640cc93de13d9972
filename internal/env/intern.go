package env

import (
	"fmt"
	"sync"
)

// Symbol is an interned identifier: a small dense integer standing for one
// identifier spelling. The zero Symbol is invalid ("not interned"); the
// expander, and ast.InternSyms for syntax built in code, fill every
// identifier field before a machine sees it.
//
// Interning is global and append-only: a spelling keeps its Symbol for the
// life of the process, so symbols can be compared, stored in continuations,
// and used as slice indices without ever touching the string table on the
// hot path.
type Symbol uint32

// symtab is the process-wide intern table. names[s] is the spelling of
// Symbol s and names[0] the invalid symbol; entries are written once, before
// the write lock is released, and never change, so a reader may index a
// names header it copied under the read lock after releasing it.
var symtab = struct {
	mu    sync.RWMutex
	ids   map[string]Symbol
	names []string
}{ids: map[string]Symbol{}, names: []string{""}}

// Intern returns the Symbol for name, creating one on first use. A new
// spelling costs one map insert and one append.
func Intern(name string) Symbol {
	symtab.mu.RLock()
	s, ok := symtab.ids[name]
	symtab.mu.RUnlock()
	if ok {
		return s
	}
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	if s, ok := symtab.ids[name]; ok {
		return s
	}
	s = Symbol(len(symtab.names))
	symtab.ids[name] = s
	symtab.names = append(symtab.names, name)
	return s
}

// InternAll interns every name.
func InternAll(names []string) []Symbol {
	out := make([]Symbol, len(names))
	for i, n := range names {
		out[i] = Intern(n)
	}
	return out
}

// SymbolName returns the spelling of s.
func SymbolName(s Symbol) string {
	symtab.mu.RLock()
	names := symtab.names
	symtab.mu.RUnlock()
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("sym#%d", uint32(s))
}
