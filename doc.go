// Package cloudmcp is a discrete-event simulator and workload-
// characterization toolkit for the management control plane of
// virtualized cloud infrastructure, reproducing Soundararajan &
// Spracklen, "Revisiting the management control plane in virtualized
// cloud computing infrastructure" (IISWC 2013).
//
// The public entry point is internal/core (package core), which
// assembles the full simulated stack; see README.md for the repository
// map and DESIGN.md for the system inventory and the reconstructed
// experiment index. cmd/mcpbench regenerates every table and figure, and
// bench/ is the repository's performance benchmark:
//
//	go run ./cmd/mcpbench -quick
//	bash bench/run.sh
package cloudmcp
