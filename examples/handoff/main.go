// Handoff study: the mobility problem the paper's related-work section
// opens with [Caceres & Iftode 94]. A mobile host crossing cells loses
// the packets queued at its old base station; plain TCP then waits out a
// retransmission timeout per crossing, while the fast-retransmit scheme
// (three duplicate acks sent right after reconnecting) resumes within a
// round trip. A handoff is a chaos fault on the paper's topology.
//
//	go run ./examples/handoff
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"wtcp/internal/core"
	"wtcp/internal/experiment"
)

func main() {
	// Handoff runs are deterministic, so one replication per point suffices.
	points, err := experiment.HandoffStudy(context.Background(),
		experiment.Options{Replications: 1}, experiment.HandoffOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiment.RenderHandoffTable(
		"1MB transfers across 2 Mbps cells, 100ms handoff gap", points))

	// One concrete pair, with the per-handoff cost spelled out.
	run := func(dupAcks bool) *core.Result {
		r, err := core.Run(experiment.HandoffConfig(time.Second, 100*time.Millisecond, dupAcks))
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	plain, fr := run(false), run(true)
	fmt.Printf("dwell 1s: plain %.1fs (%d timeouts, %d handoffs) vs fast-retransmit %.1fs (%d fast retransmits)\n",
		plain.Summary.Elapsed.Seconds(), plain.Summary.Timeouts, plain.Chaos.Handoffs,
		fr.Summary.Elapsed.Seconds(), fr.Summary.FastRetransmits)
	fmt.Printf("improvement: %.0f%% shorter transfer\n",
		100*(plain.Summary.Elapsed-fr.Summary.Elapsed).Seconds()/plain.Summary.Elapsed.Seconds())
}
