// Fixture for the costcharge analyzer: package path matches the real
// host matmul kernel, which the config package leaves outside the
// cost-charging contract — it runs real computation on the host
// machine, not a paper formulation, so its goroutines and sync
// primitives move no simulated data. Every construct below would be a
// diagnostic in a charged package; here none may fire.
package matrix

import "sync"

// MulAddIntoParallelShape mirrors the real kernel's structure: a
// WaitGroup join over worker goroutines, each owning a disjoint slab.
func MulAddIntoParallelShape(workers int, slab func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slab(w)
		}(w)
	}
	slab(0)
	wg.Wait()
}

// Channels too: host kernels may coordinate however they like.
func resultChannel() chan int {
	ch := make(chan int)
	go func() { ch <- 1 }()
	return ch
}
