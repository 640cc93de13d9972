package secd

import (
	"errors"
	"fmt"

	"tailspace/internal/ast"
	"tailspace/internal/core"
	"tailspace/internal/prim"
	"tailspace/internal/value"
)

// Mode selects the machine variant.
type Mode int

const (
	// Classic treats every application as AP: the dump grows on every call,
	// tail or not — Landin's original machine, improperly tail recursive.
	Classic Mode = iota
	// TailRecursive honours TAP: a tail application reuses the dump entry,
	// so iterative programs run with a bounded dump — Ramsdell's machine.
	TailRecursive
)

func (m Mode) String() string {
	if m == Classic {
		return "classic"
	}
	return "tail-recursive"
}

// frame is a runtime environment frame of mutable slots.
type frame struct {
	slots []value.Value
}

// renv is the runtime environment: innermost frame first.
type renv struct {
	f      *frame
	parent *renv
}

func (e *renv) at(depth, index int) (*frame, error) {
	for ; depth > 0; depth-- {
		if e == nil {
			return nil, errors.New("secd: bad lexical depth")
		}
		e = e.parent
	}
	if e == nil || index >= len(e.f.slots) {
		return nil, errors.New("secd: bad lexical address")
	}
	return e.f, nil
}

// closure is an SECD closure: code plus captured environment. It is carried
// through the shared value domain as a Foreign value.
type closure struct {
	code  []Instr
	env   *renv
	arity int
	label string
}

// dumpEntry is one saved (stack, environment, control) triple.
type dumpEntry struct {
	s []value.Value
	e *renv
	c []Instr
}

// Machine is an SECD machine instance.
type Machine struct {
	mode  Mode
	store *value.Store // backs pairs/vectors via the standard procedures

	s []value.Value
	e *renv
	c []Instr
	d []dumpEntry

	steps int
	// peaks
	peakDump  int
	peakState int
}

// Result reports an SECD run.
type Result struct {
	Answer string
	Steps  int
	// PeakDump is the deepest dump (the machine's control stack).
	PeakDump int
	// PeakState is the largest machine-state size in words: stack + control
	// + environment chains + dump entries, values counted as references.
	PeakState int
	Err       error
}

// Run compiles nothing — it executes already-compiled code.
func Run(code []Instr, mode Mode, maxSteps int) Result {
	m := &Machine{mode: mode, store: value.NewStore(), c: code}
	if maxSteps <= 0 {
		maxSteps = 5_000_000
	}
	for {
		if m.steps >= maxSteps {
			return Result{Steps: m.steps, Err: errors.New("secd: step budget exceeded")}
		}
		done, err := m.step()
		if err != nil {
			return Result{Steps: m.steps, PeakDump: m.peakDump, PeakState: m.peakState, Err: err}
		}
		if done {
			answer := core.Answer(m.s[len(m.s)-1], m.store)
			return Result{
				Answer: answer, Steps: m.steps,
				PeakDump: m.peakDump, PeakState: m.peakState,
			}
		}
	}
}

func (m *Machine) step() (bool, error) {
	m.steps++
	m.observe()

	if len(m.c) == 0 {
		if len(m.d) == 0 {
			if len(m.s) == 0 {
				return false, errors.New("secd: empty stack at halt")
			}
			return true, nil
		}
		return false, errors.New("secd: control exhausted with a non-empty dump")
	}
	inst := m.c[0]
	m.c = m.c[1:]

	switch inst.Op {
	case LDC:
		m.push(constValue(inst.Const))

	case LD:
		f, err := m.e.at(inst.Depth, inst.Index)
		if err != nil {
			return false, err
		}
		v := f.slots[inst.Index]
		if _, undef := v.(value.Undefined); undef {
			return false, errors.New("secd: variable read before initialization")
		}
		m.push(v)

	case LDG:
		p, ok := prim.Lookup(inst.Name)
		if !ok {
			return false, fmt.Errorf("secd: unknown global %s", inst.Name)
		}
		m.push(p)

	case LDF:
		m.push(value.Foreign{Tag: "secd-closure", Data: closure{
			code: inst.Code, env: m.e, arity: inst.N, label: inst.Name,
		}})

	case STE:
		f, err := m.e.at(inst.Depth, inst.Index)
		if err != nil {
			return false, err
		}
		f.slots[inst.Index] = m.pop()
		m.push(value.Unspecified{})

	case PRIM:
		p, ok := prim.Lookup(inst.Name)
		if !ok {
			return false, fmt.Errorf("secd: unknown primitive %s", inst.Name)
		}
		args := m.popN(inst.N)
		if p.Arity >= 0 && len(args) != p.Arity {
			return false, fmt.Errorf("secd: %s expects %d arguments, got %d", p.Name, p.Arity, len(args))
		}
		v, err := p.Apply(m.store, args)
		if err != nil {
			return false, fmt.Errorf("secd: %w", err)
		}
		m.push(v)

	case SEL:
		test := m.pop()
		m.d = append(m.d, dumpEntry{c: m.c})
		if value.Truthy(test) {
			m.c = inst.Then
		} else {
			m.c = inst.Else
		}

	case TSEL:
		test := m.pop()
		if value.Truthy(test) {
			m.c = inst.Then
		} else {
			m.c = inst.Else
		}

	case JOIN:
		if len(m.d) == 0 {
			return false, errors.New("secd: JOIN with empty dump")
		}
		top := m.d[len(m.d)-1]
		m.d = m.d[:len(m.d)-1]
		m.c = top.c

	case AP:
		return false, m.apply(inst.N, false)

	case TAP:
		// Ramsdell's machine performs the call as a goto. The classic
		// machine has no such instruction: a tail call is an ordinary AP
		// whose only continuation is to return, so it executes TAP as
		// "AP; RTN" — pushing a frame that does nothing but pop itself.
		// Same code, different machine, exactly as the paper compares one
		// program across reference implementations.
		if m.mode == TailRecursive {
			return false, m.apply(inst.N, true)
		}
		m.c = []Instr{{Op: RTN}}
		return false, m.apply(inst.N, false)

	case RTN:
		if len(m.d) == 0 {
			return false, errors.New("secd: RTN with empty dump")
		}
		v := m.pop()
		top := m.d[len(m.d)-1]
		m.d = m.d[:len(m.d)-1]
		m.s = append(top.s, v)
		m.e = top.e
		m.c = top.c

	default:
		return false, fmt.Errorf("secd: unknown opcode %v", inst.Op)
	}
	return false, nil
}

func (m *Machine) apply(n int, tailCall bool) error {
	opVal := m.pop()
	args := m.popN(n)
	switch proc := opVal.(type) {
	case value.Foreign:
		cl, ok := proc.Data.(closure)
		if !ok {
			return fmt.Errorf("secd: call of non-procedure %s", proc.Tag)
		}
		if len(args) != cl.arity {
			return fmt.Errorf("secd: %s expects %d arguments, got %d", cl.label, cl.arity, len(args))
		}
		if !tailCall {
			m.d = append(m.d, dumpEntry{s: m.s, e: m.e, c: m.c})
		}
		m.s = nil
		m.e = &renv{f: &frame{slots: args}, parent: cl.env}
		m.c = cl.code
		return nil
	case *value.Primop:
		// A standard procedure that reached the stack as a value (e.g.
		// passed to a higher-order function). No dump is needed: it returns
		// immediately.
		if proc.CallCC || proc.Spread {
			return fmt.Errorf("secd: %s is not supported on the SECD machine", proc.Name)
		}
		if proc.Arity >= 0 && len(args) != proc.Arity {
			return fmt.Errorf("secd: %s expects %d arguments, got %d", proc.Name, proc.Arity, len(args))
		}
		v, err := proc.Apply(m.store, args)
		if err != nil {
			return fmt.Errorf("secd: %w", err)
		}
		m.push(v)
		if tailCall {
			// The value must still be returned to the caller.
			return m.returnFromTailPrim()
		}
		return nil
	}
	return fmt.Errorf("secd: call of non-procedure %T", opVal)
}

// returnFromTailPrim handles (f x) in tail position where f turned out to be
// a primitive: the TAP consumed the frame, so the result returns through the
// dump exactly like RTN.
func (m *Machine) returnFromTailPrim() error {
	if len(m.d) == 0 {
		// Top level: leave the value on the stack; control will empty.
		m.c = nil
		return nil
	}
	v := m.pop()
	top := m.d[len(m.d)-1]
	m.d = m.d[:len(m.d)-1]
	m.s = append(top.s, v)
	m.e = top.e
	m.c = top.c
	return nil
}

func (m *Machine) push(v value.Value) { m.s = append(m.s, v) }

func (m *Machine) pop() value.Value {
	v := m.s[len(m.s)-1]
	m.s = m.s[:len(m.s)-1]
	return v
}

func (m *Machine) popN(n int) []value.Value {
	args := make([]value.Value, n)
	copy(args, m.s[len(m.s)-n:])
	m.s = m.s[:len(m.s)-n]
	return args
}

// observe tracks the dump depth and machine-state size peaks.
func (m *Machine) observe() {
	if len(m.d) > m.peakDump {
		m.peakDump = len(m.d)
	}
	size := len(m.s) + len(m.c)
	seen := map[*frame]bool{}
	size += envSize(m.e, seen)
	for _, de := range m.d {
		size += len(de.s) + len(de.c) + 1
		size += envSize(de.e, seen)
	}
	if size > m.peakState {
		m.peakState = size
	}
}

func envSize(e *renv, seen map[*frame]bool) int {
	n := 0
	for ; e != nil; e = e.parent {
		if seen[e.f] {
			return n
		}
		seen[e.f] = true
		n += len(e.f.slots) + 1
	}
	return n
}

func constValue(c ast.ConstValue) value.Value {
	switch x := c.(type) {
	case ast.BoolConst:
		return value.Bool(bool(x))
	case ast.NumConst:
		return value.Num{Int: x.Int}
	case ast.SymConst:
		return value.Sym(string(x))
	case ast.StrConst:
		return value.Str(string(x))
	case ast.CharConst:
		return value.Char(rune(x))
	case ast.NilConst:
		return value.Null{}
	case ast.UnspecifiedConst:
		return value.Unspecified{}
	}
	panic(fmt.Sprintf("secd: unknown constant %T", c))
}
