package olapmicro_test

import (
	"fmt"

	"olapmicro/internal/engine/typer"
	"olapmicro/internal/hw"
	"olapmicro/internal/mem"
	"olapmicro/internal/probe"
	"olapmicro/internal/tmam"
	"olapmicro/internal/tpch"
)

// Example profiles one query on the simulated Broadwell server and
// prints its VTune-style top-down breakdown. The output pins the
// paper's headline for this workload: a compiled engine saturates
// per-core bandwidth and still spends most cycles on Dcache stalls,
// because prefetchers cannot run far enough ahead.
func Example() {
	// 1. Generate a TPC-H database (SF 0.1 keeps the example fast).
	data := tpch.Generate(0.1)
	fmt.Printf("TPC-H SF 0.1: %d lineitem rows\n", data.Lineitem.Rows())

	// 2. Pick a machine and an engine; bind the engine to simulated
	//    virtual addresses.
	machine := hw.Broadwell()
	eng := typer.New(data, probe.NewAddrSpace())

	// 3. Run a query under the probe: the engine computes the real
	//    answer while the probe drives the cache/branch/port simulators.
	p := probe.New(machine, mem.AllPrefetchers())
	result := eng.Projection(p, 4) // SUM over four lineitem columns

	// 4. Account the events into the paper's cycle breakdown.
	prof := tmam.Account(p, tmam.Params{})

	fmt.Printf("SUM(l_extendedprice + l_discount + l_tax + l_quantity) = %d\n", result.Sum)
	fmt.Printf("simulated response time: %.2f ms\n", prof.Milliseconds())
	fmt.Printf("memory bandwidth: %.1f GB/s (per-core max %.0f)\n",
		prof.BandwidthGBs, machine.PerCoreBW.Sequential/hw.GB)
	fmt.Printf("cycle breakdown: %s\n", prof.Breakdown)
	// Output:
	// TPC-H SF 0.1: 600156 lineitem rows
	// SUM(l_extendedprice + l_discount + l_tax + l_quantity) = 215655391470
	// simulated response time: 1.60 ms
	// memory bandwidth: 12.0 GB/s (per-core max 12)
	// cycle breakdown: retiring 33.2% stall 66.8% [exec 0% dcache 100% decode 0% icache 0% brmisp 0%]
}
