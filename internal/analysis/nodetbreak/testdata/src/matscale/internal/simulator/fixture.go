// Fixture for the nodetbreak analyzer: package path matches the real
// simulator package, so the determinism contract applies.
package simulator

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

func wallClock() time.Duration {
	start := time.Now()                 // want `time\.Now breaks run-to-run determinism`
	fmt.Println(runtime.NumGoroutine()) // want `NumGoroutine depends on goroutine scheduling`
	return time.Since(start)            // want `time\.Since breaks run-to-run determinism`
}

func globalDraw() int {
	return rand.Intn(10) // want `unseeded global source`
}

func seededDraw(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // seeded constructors are allowed
	return r.Float64()                  // method on a seeded generator: allowed
}

func emit(m map[int]float64) {
	for k, v := range m { // want `feeds ordered output through fmt\.Println`
		fmt.Println(k, v)
	}
}

func collect(m map[int]float64) []int {
	var out []int
	for k := range m { // want `appends to out declared outside the loop`
		out = append(out, k)
	}
	return out
}

func collectSorted(m map[int]float64) []int {
	var keys []int
	for k := range m { //nodetbreak:ordered — sorted immediately below
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func collectSortedAbove(m map[int]float64) []int {
	var keys []int
	//nodetbreak:ordered — marker on the line above also works
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func pickMin(m map[string]float64) string {
	best, bestTp := "", 1e300
	for name, tp := range m { // want `assigns best declared outside the loop`
		if tp < bestTp {
			best, bestTp = name, tp
		}
	}
	return best
}

func sumFloats(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want `accumulates float s`
		s += v
	}
	return s
}

func invert(m map[int]int) map[int]int { // order-insensitive: no diagnostic
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

func count(m map[int]int) int { // integer ++ is exact and commutative
	n := 0
	for range m {
		n++
	}
	return n
}

type pooledRun struct {
	pool    sync.Pool  // want `sync\.Pool in a deterministic package`
	scratch *sync.Pool // want `sync\.Pool in a deterministic package`
	// The reviewed marker suppresses the diagnostic:
	bufs sync.Pool //nodetbreak:pooled — reviewed: payload recycling only
	//nodetbreak:pooled — reviewed: marker on the line above also works
	slabs sync.Pool
}

var globalPool sync.Pool // want `sync\.Pool in a deterministic package`

// A pool declared without a type expression is flagged by its literal
// or by the type inferred for its name.
var litPool = sync.Pool{New: func() any { return new(int) }} // want `sync\.Pool in a deterministic package`

var reviewedLitPool = sync.Pool{New: func() any { return new(int) }} //nodetbreak:pooled — reviewed: scratch only

func newPool() *sync.Pool { // want `sync\.Pool in a deterministic package`
	return &sync.Pool{} // want `sync\.Pool in a deterministic package`
}

var inferredPool = newPool() // want `sync\.Pool in a deterministic package`

func shortPool() interface{} {
	p := &sync.Pool{} // want `sync\.Pool in a deterministic package`
	return p.Get()
}

func usePools(r *pooledRun) interface{} {
	return r.bufs.Get()
}
