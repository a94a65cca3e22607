package analytic_test

import (
	"fmt"
	"time"

	"wtcp/internal/analytic"
	"wtcp/internal/errmodel"
)

// Example computes the payload-only ceiling an ideal EBSN run approaches
// on the wide-area setup at a given packet size, and the header
// efficiency that shapes the left edge of Figure 7.
func Example() {
	const effectiveRate = 12800 // 19.2 kbps radio, 1.5x overhead
	fmt.Printf("EBSN ceiling @1536: %.2f Kbps\n",
		analytic.EBSNCeilingKbps(effectiveRate, 1536, errmodel.PaperWAN(4*time.Second)))
	fmt.Printf("header efficiency @128: %.3f\n",
		analytic.HeaderEfficiency(128))
	// Output:
	// EBSN ceiling @1536: 8.90 Kbps
	// header efficiency @128: 0.688
}
