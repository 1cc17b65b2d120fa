// Package clean is outside the cost-charging contract's scope: host
// code (the host benchmarks, the CLI) may use real concurrency freely.
package clean

import "sync"

func HostParallel(n int, work func(int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	wg.Wait()
}
