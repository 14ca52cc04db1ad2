package gen

import (
	"fmt"
	"testing"
)

// BenchmarkGnp times a sparse draw and the dense input of perfbench's
// spanner-dense workload, Gnp(2·10^4, 200/(n−1), 2019), whose set-up is
// almost all this build.
func BenchmarkGnp(b *testing.B) {
	b.Run("n=5000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Gnp(5000, 0.01, 1)
		}
	})
	b.Run("n=20000,deg=200", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Gnp(20000, 200.0/(20000-1), 2019)
		}
	})
}

// BenchmarkRandomRegular times a small draw and the input of perfbench's
// assemble workload, RandomRegular(2·10^5, 8).
func BenchmarkRandomRegular(b *testing.B) {
	for _, n := range []int{2000, 200_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RandomRegular(n, 8, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChungLu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ChungLu(5000, 2.3, 12, 1)
	}
}
