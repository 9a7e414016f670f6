// Capacity planning: use the experiment harness as a what-if tool. We
// sweep offered provisioning concurrency to find each mode's throughput
// knee, then ask which control-plane change buys the most headroom —
// more director cells or finer-grained inventory locking — the design
// questions the paper raises for virtualized-datacenter architects.
//
//	go run ./examples/capacity-planning
package main

import (
	"fmt"
	"log"
	"os"

	"cloudmcp/internal/core"
)

func main() {
	fmt.Println("Step 1: where does provisioning throughput flatten?")
	e6, err := core.RunE6(core.Params{Seed: 3, HorizonS: 900})
	if err != nil {
		log.Fatal(err)
	}
	e6.Render(os.Stdout)
	fmt.Printf("peak: linked %.0f deploys/h vs full %.0f deploys/h\n\n",
		e6.PeakThroughput(true), e6.PeakThroughput(false))

	fmt.Println("Step 2: does adding director cells help at saturation?")
	e10, err := core.RunE10(core.Params{Seed: 3, HorizonS: 900})
	if err != nil {
		log.Fatal(err)
	}
	e10.Render(os.Stdout)
	fmt.Println()

	fmt.Println("Step 3: or is lock granularity the binding constraint?")
	e11, err := core.RunE11(core.Params{Seed: 3, HorizonS: 900})
	if err != nil {
		log.Fatal(err)
	}
	e11.Render(os.Stdout)

	fmt.Println("\nReading the three tables together tells the planner whether the")
	fmt.Println("next dollar goes to front-end cells, manager concurrency, or")
	fmt.Println("lock restructuring — the paper's design-implication question.")
}
