// Benchmarks, two tiers:
//
//   - BenchmarkHotPath: one sub-benchmark per steady-state fixture of
//     internal/hotpath (engine, DAMN alloc/free, DMA map/unmap under every
//     scheme, IOTLB, skb and RX paths, ARQ, capability check, bypass poll).
//   - BenchmarkCatalog: one sub-benchmark per catalog entry; each iteration
//     reruns the figure in quick mode. These take seconds per iteration by
//     design. The figures' values are pinned exactly by the goldens in
//     internal/experiments/testdata/quick, so only host cost is reported.
//
// Run everything with:
//
//	go test -bench=. -benchmem -run=^$ .
package damn_test

import (
	"testing"

	"github.com/asplos18/damn/internal/experiments"
	"github.com/asplos18/damn/internal/hotpath"
)

func BenchmarkHotPath(b *testing.B) {
	for _, c := range hotpath.Cases() {
		b.Run(c.Name, hotpath.Bench(c))
	}
}

func BenchmarkCatalog(b *testing.B) {
	for _, fig := range experiments.Catalog() {
		b.Run(fig.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fig.Run(experiments.Options{Quick: true, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
