package cell_test

import (
	"fmt"
	"time"

	"wtcp/internal/cell"
	"wtcp/internal/units"
)

// Example reproduces the scheduling comparison the paper's related-work
// section summarizes: round-robin service beats FIFO when mobile users
// fade independently, because a fading head-of-line packet no longer
// blocks everyone.
func Example() {
	run := func(p cell.Policy) float64 {
		cfg := cell.LAN(4, p, time.Second)
		cfg.TransferSize = 256 * units.KB
		r, err := cell.Run(cfg)
		if err != nil {
			return 0
		}
		return r.AggregateKbps
	}
	fifo := run(cell.FIFO)
	rr := run(cell.RoundRobin)
	csdp := run(cell.CSDP)
	fmt.Println("round-robin beats FIFO:", rr > fifo)
	fmt.Println("CSDP beats FIFO:      ", csdp > fifo)
	// Output:
	// round-robin beats FIFO: true
	// CSDP beats FIFO:       true
}
