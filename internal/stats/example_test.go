package stats_test

import (
	"fmt"

	"wtcp/internal/stats"
)

// ExampleSample_RelStdDev computes the paper's reported dispersion
// quantity ("the standard deviation for all results presented is less
// than 4%").
func ExampleSample_RelStdDev() {
	var s stats.Sample
	for _, v := range []float64{9.8, 10.0, 10.2} {
		s.Add(v)
	}
	fmt.Printf("relative stddev: %.1f%%\n", 100*s.RelStdDev())
	// Output:
	// relative stddev: 2.0%
}
