package experiments

import (
	"runtime"
	"sync"

	"tailspace/internal/core"
	"tailspace/internal/space"
)

// Experiment grids — (program × machine × size) — are embarrassingly
// parallel: every run builds its own store, machine, and meter, and the only
// process-wide mutable state is the ablation switch, which runs by itself.
// The grid helpers below fan runs out over a package-wide bounded pool so
// sweeps scale with the hardware while results stay byte-identical to a
// sequential run: outputs land in their input's slot and the lowest-index
// error wins.

var (
	poolMu     sync.Mutex
	poolSem    = make(chan struct{}, runtime.GOMAXPROCS(0))
	poolCancel <-chan struct{}
)

// SetJobs bounds the number of measurement runs in flight across all
// experiments (the spacelab -jobs flag). n < 1 restores the default,
// GOMAXPROCS. Grids already in flight keep their previous bound.
func SetJobs(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	poolSem = make(chan struct{}, n)
	poolMu.Unlock()
}

// Jobs reports the current bound.
func Jobs() int {
	poolMu.Lock()
	defer poolMu.Unlock()
	return cap(poolSem)
}

// SetCancel installs a package-wide cancellation channel (a context's
// Done()): grid tasks not yet started are skipped once it closes, and
// every sweep run polls it through core.Options.Cancel, so an interrupt
// (Ctrl-C in spacelab/tailscan) stops a long sweep between transitions
// instead of killing the process mid-write. nil restores the default
// (never cancelled).
func SetCancel(done <-chan struct{}) {
	poolMu.Lock()
	poolCancel = done
	poolMu.Unlock()
}

// cancelChan reads the installed cancellation channel (nil when none).
func cancelChan() <-chan struct{} {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolCancel
}

// cancelled reports whether the installed channel has fired.
func cancelled() bool {
	done := cancelChan()
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// runGrid runs task(0), ..., task(n-1) on the shared bounded pool and waits
// for all of them. Each task writes its result into caller-owned slot i, so
// output order is deterministic; the returned error is the lowest-index one.
// Tasks that have not started when the installed cancellation channel fires
// are skipped and report core.ErrCancelled.
func runGrid(n int, task func(i int) error) error {
	if n == 1 {
		return task(0)
	}
	poolMu.Lock()
	sem := poolSem
	poolMu.Unlock()

	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if cancelled() {
				errs[i] = core.ErrCancelled
				return
			}
			errs[i] = task(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// poolModel is the package-wide cost-model override; nil means every
// experiment keeps its own historical default (Fixnum for the hierarchy and
// separation grids, which predate the cost-model axis).
var poolModel space.CostModel

// SetCostModel installs a package-wide cost-model override (the spacelab and
// tailscan -cost-model flag): every sweep and grid prices space under m
// instead of its per-experiment default. nil restores the defaults.
func SetCostModel(m space.CostModel) {
	poolMu.Lock()
	poolModel = m
	poolMu.Unlock()
}

// CostModelOverride reads the installed override (nil when none).
func CostModelOverride() space.CostModel {
	poolMu.Lock()
	defer poolMu.Unlock()
	return poolModel
}

// expModel resolves the cost model one run should use: the package override
// when installed, the caller's default otherwise (nil means WordModel).
func expModel(def space.CostModel) space.CostModel {
	if o := CostModelOverride(); o != nil {
		return o
	}
	return def
}
