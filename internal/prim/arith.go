package prim

import (
	"math/big"

	"tailspace/internal/value"
)

func registerArith() {
	def("+", -1, func(st *value.Store, args []value.Value) (value.Value, error) {
		sum := new(big.Int)
		for _, a := range args {
			n, err := wantNum("+", a)
			if err != nil {
				return nil, err
			}
			sum.Add(sum, n.Int)
		}
		return value.Num{Int: sum}, nil
	})

	def("-", -1, func(st *value.Store, args []value.Value) (value.Value, error) {
		if len(args) == 0 {
			return nil, errf("-", "needs at least one argument")
		}
		first, err := wantNum("-", args[0])
		if err != nil {
			return nil, err
		}
		if len(args) == 1 {
			return value.Num{Int: new(big.Int).Neg(first.Int)}, nil
		}
		acc := new(big.Int).Set(first.Int)
		for _, a := range args[1:] {
			n, err := wantNum("-", a)
			if err != nil {
				return nil, err
			}
			acc.Sub(acc, n.Int)
		}
		return value.Num{Int: acc}, nil
	})

	def("*", -1, func(st *value.Store, args []value.Value) (value.Value, error) {
		prod := big.NewInt(1)
		for _, a := range args {
			n, err := wantNum("*", a)
			if err != nil {
				return nil, err
			}
			prod.Mul(prod, n.Int)
		}
		return value.Num{Int: prod}, nil
	})

	def("quotient", 2, func(st *value.Store, args []value.Value) (value.Value, error) {
		a, err := wantNum("quotient", args[0])
		if err != nil {
			return nil, err
		}
		b, err := wantNum("quotient", args[1])
		if err != nil {
			return nil, err
		}
		if b.Int.Sign() == 0 {
			return nil, errf("quotient", "division by zero")
		}
		return value.Num{Int: new(big.Int).Quo(a.Int, b.Int)}, nil
	})

	def("remainder", 2, func(st *value.Store, args []value.Value) (value.Value, error) {
		a, err := wantNum("remainder", args[0])
		if err != nil {
			return nil, err
		}
		b, err := wantNum("remainder", args[1])
		if err != nil {
			return nil, err
		}
		if b.Int.Sign() == 0 {
			return nil, errf("remainder", "division by zero")
		}
		return value.Num{Int: new(big.Int).Rem(a.Int, b.Int)}, nil
	})

	def("modulo", 2, func(st *value.Store, args []value.Value) (value.Value, error) {
		a, err := wantNum("modulo", args[0])
		if err != nil {
			return nil, err
		}
		b, err := wantNum("modulo", args[1])
		if err != nil {
			return nil, err
		}
		if b.Int.Sign() == 0 {
			return nil, errf("modulo", "division by zero")
		}
		m := new(big.Int).Mod(a.Int, b.Int) // Go's Mod is Euclidean for positive divisors
		if m.Sign() != 0 && (m.Sign() < 0) != (b.Int.Sign() < 0) {
			m.Add(m, b.Int)
		}
		return value.Num{Int: m}, nil
	})

	def("abs", 1, func(st *value.Store, args []value.Value) (value.Value, error) {
		n, err := wantNum("abs", args[0])
		if err != nil {
			return nil, err
		}
		return value.Num{Int: new(big.Int).Abs(n.Int)}, nil
	})

	def("expt", 2, func(st *value.Store, args []value.Value) (value.Value, error) {
		a, err := wantNum("expt", args[0])
		if err != nil {
			return nil, err
		}
		b, err := wantNum("expt", args[1])
		if err != nil {
			return nil, err
		}
		if b.Int.Sign() < 0 || !b.Int.IsInt64() {
			return nil, errf("expt", "exponent must be a small non-negative integer")
		}
		return value.Num{Int: new(big.Int).Exp(a.Int, b.Int, nil)}, nil
	})

	compare := func(name string, ok func(cmp int) bool) {
		def(name, -1, func(st *value.Store, args []value.Value) (value.Value, error) {
			if len(args) < 2 {
				return nil, errf(name, "needs at least two arguments")
			}
			prev, err := wantNum(name, args[0])
			if err != nil {
				return nil, err
			}
			for _, a := range args[1:] {
				n, err := wantNum(name, a)
				if err != nil {
					return nil, err
				}
				if !ok(prev.Int.Cmp(n.Int)) {
					return boolVal(false), nil
				}
				prev = n
			}
			return boolVal(true), nil
		})
	}
	compare("=", func(c int) bool { return c == 0 })
	compare("<", func(c int) bool { return c < 0 })
	compare(">", func(c int) bool { return c > 0 })
	compare("<=", func(c int) bool { return c <= 0 })
	compare(">=", func(c int) bool { return c >= 0 })

	def("zero?", 1, func(st *value.Store, args []value.Value) (value.Value, error) {
		n, err := wantNum("zero?", args[0])
		if err != nil {
			return nil, err
		}
		return boolVal(n.Int.Sign() == 0), nil
	})

	def("positive?", 1, func(st *value.Store, args []value.Value) (value.Value, error) {
		n, err := wantNum("positive?", args[0])
		if err != nil {
			return nil, err
		}
		return boolVal(n.Int.Sign() > 0), nil
	})

	def("negative?", 1, func(st *value.Store, args []value.Value) (value.Value, error) {
		n, err := wantNum("negative?", args[0])
		if err != nil {
			return nil, err
		}
		return boolVal(n.Int.Sign() < 0), nil
	})

	def("even?", 1, func(st *value.Store, args []value.Value) (value.Value, error) {
		n, err := wantNum("even?", args[0])
		if err != nil {
			return nil, err
		}
		return boolVal(n.Int.Bit(0) == 0), nil
	})

	def("odd?", 1, func(st *value.Store, args []value.Value) (value.Value, error) {
		n, err := wantNum("odd?", args[0])
		if err != nil {
			return nil, err
		}
		return boolVal(n.Int.Bit(0) == 1), nil
	})

	def("min", -1, func(st *value.Store, args []value.Value) (value.Value, error) {
		return extremum("min", args, func(c int) bool { return c < 0 })
	})
	def("max", -1, func(st *value.Store, args []value.Value) (value.Value, error) {
		return extremum("max", args, func(c int) bool { return c > 0 })
	})

	def("random", 1, func(st *value.Store, args []value.Value) (value.Value, error) {
		n, err := wantNum("random", args[0])
		if err != nil {
			return nil, err
		}
		if n.Int.Sign() <= 0 || !n.Int.IsInt64() {
			return nil, errf("random", "bound must be a positive fixnum")
		}
		return value.NewNum(st.Rand().Int63n(n.Int.Int64())), nil
	})
}

func extremum(name string, args []value.Value, better func(cmp int) bool) (value.Value, error) {
	if len(args) == 0 {
		return nil, errf(name, "needs at least one argument")
	}
	best, err := wantNum(name, args[0])
	if err != nil {
		return nil, err
	}
	for _, a := range args[1:] {
		n, err := wantNum(name, a)
		if err != nil {
			return nil, err
		}
		if better(n.Int.Cmp(best.Int)) {
			best = n
		}
	}
	return best, nil
}
