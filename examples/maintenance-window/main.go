// Maintenance window: how long does it take to drain a host, and how does
// the answer change when the cloud is busy? Entering maintenance mode
// live-migrates every resident VM — a train of management operations that
// queues behind the self-service stream, so the window stretches exactly
// when the operator can least afford it.
//
//	go run ./examples/maintenance-window
package main

import (
	"fmt"
	"log"
	"os"

	"cloudmcp/internal/core"
)

func main() {
	fmt.Println("Evacuating a host with resident VMs at rising levels of")
	fmt.Println("background self-service load (paper-era manager sizing):")
	fmt.Println()

	res, err := core.RunE14(core.Params{Seed: 21, HorizonS: 1200})
	if err != nil {
		log.Fatal(err)
	}
	res.Render(os.Stdout)

	idle, busy := res.Points[0], res.Points[len(res.Points)-1]
	fmt.Printf("\nThe evacuation takes %.0f s idle (%d migrations) and %.0f s at %.0f req/h\n",
		idle.EvacuationS, idle.Migrations, busy.EvacuationS, busy.RatePerHour)
	fmt.Printf("(%d migrations, %.1fx stretch): background deploys land on the host\n",
		busy.Migrations, busy.EvacuationS/idle.EvacuationS)
	fmt.Println("before it drains, and the migrations queue behind self-service")
	fmt.Println("traffic at the manager's worker threads and database. Scheduling")
	fmt.Println("maintenance windows by wall clock without modeling control-plane")
	fmt.Println("load underestimates them — one of the operational implications the")
	fmt.Println("paper's characterization surfaces.")
}
