package value

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tailspace/internal/env"
)

func sizeOf(v Value) int {
	// A simple pricing function for the incremental-total tests.
	switch x := v.(type) {
	case Str:
		return 1 + len(x)
	case Pair:
		return 3
	case Vector:
		return 1 + len(x.ElemLocs)
	default:
		return 1
	}
}

// accountant is a test StoreObserver maintaining Σ (1 + sizeOf(σ(α))) — the
// shape of incremental account the space meters build on these hooks.
type accountant struct{ total int }

func (a *accountant) StoreAlloc(_ env.Location, v Value)    { a.total += 1 + sizeOf(v) }
func (a *accountant) StoreSet(_ env.Location, old, v Value) { a.total += sizeOf(v) - sizeOf(old) }
func (a *accountant) StoreDelete(_ env.Location, v Value)   { a.total -= 1 + sizeOf(v) }

func TestObserverTracksMutations(t *testing.T) {
	s := NewStore()
	a := &accountant{}
	s.AddObserver(a)
	s.AddObserver(a)          // double registration is a no-op
	l := s.Alloc(Str("abcd")) // +6
	if a.total != 6 {
		t.Fatalf("after alloc: %d", a.total)
	}
	s.Set(l, Null{}) // 6 - 5 + 1
	if a.total != 2 {
		t.Fatalf("after set: %d", a.total)
	}
	s.Delete(l)
	if a.total != 0 {
		t.Fatalf("after delete: %d", a.total)
	}
	s.Delete(l) // double delete is a no-op
	if a.total != 0 {
		t.Fatalf("after double delete: %d", a.total)
	}
}

func TestObserverSeesCollection(t *testing.T) {
	s := NewStore()
	a := &accountant{}
	s.AddObserver(a)
	keep := s.Alloc(NewNum(1))
	s.Alloc(Str("garbage"))
	s.Collect(rootsVal(keep), env.Empty(), nil)
	if a.total != 2 {
		t.Fatalf("after collect: %d", a.total)
	}
}

func TestRemoveObserverStopsNotifications(t *testing.T) {
	s := NewStore()
	a := &accountant{}
	s.AddObserver(a)
	s.Alloc(Null{})
	s.RemoveObserver(a)
	s.Alloc(Str("unseen"))
	if a.total != 2 {
		t.Fatalf("total = %d, want 2 (only the first alloc observed)", a.total)
	}
}

// TestPropertyObserverNeverDrifts drives random store operations and checks
// the incremental total against a full walk after every step.
func TestPropertyObserverNeverDrifts(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		a := &accountant{}
		s.AddObserver(a)
		var live []env.Location
		for i := 0; i < 60; i++ {
			switch r.Intn(4) {
			case 0:
				live = append(live, s.Alloc(Str(string(rune('a'+r.Intn(26))))))
			case 1:
				if len(live) > 0 {
					s.Set(live[r.Intn(len(live))], NewNum(int64(r.Intn(100))))
				}
			case 2:
				if len(live) > 0 {
					i := r.Intn(len(live))
					s.Delete(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 3:
				roots := live
				if len(roots) > 1 {
					roots = roots[:len(roots)/2]
				}
				s.Collect(rootsVal(roots...), env.Empty(), nil)
				live = append([]env.Location{}, roots...)
			}
			walked := 0
			s.Each(func(_ env.Location, v Value) { walked += 1 + sizeOf(v) })
			if walked != a.total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLocationsOrderedAndComplete(t *testing.T) {
	s := NewStore()
	a := s.Alloc(Null{})
	b := s.Alloc(Null{})
	c := s.Alloc(Null{})
	s.Delete(b)
	locs := s.Locations()
	if len(locs) != 2 || locs[0] != a || locs[1] != c {
		t.Fatalf("locations = %v", locs)
	}
}

func TestAllocN(t *testing.T) {
	s := NewStore()
	locs := s.AllocN([]Value{NewNum(1), NewNum(2)})
	if len(locs) != 2 {
		t.Fatalf("locs = %v", locs)
	}
	v, _ := s.Get(locs[1])
	if v.(Num).Int.Int64() != 2 {
		t.Fatal("wrong value")
	}
}

func TestContNextChains(t *testing.T) {
	rho := env.Empty()
	var k Cont = Halt{}
	frames := []Cont{
		&Select{Env: rho, K: k},
		&Assign{Env: rho, K: k},
		NewPush(nil, []int{0}, nil, rho, k),
		&Call{K: k},
		&Return{Env: rho, K: k},
		&ReturnStack{Env: rho, K: k},
	}
	for _, f := range frames {
		if f.Next() == nil {
			t.Fatalf("%T must expose its saved continuation", f)
		}
		if _, ok := f.Next().(Halt); !ok {
			t.Fatalf("%T.Next() = %T", f, f.Next())
		}
	}
	if (Halt{}).Next() != nil {
		t.Fatal("halt has no next")
	}
}
