// Package cluster models the network of workstations the paper ran on:
// a handful of heterogeneous machines (one 200 MHz and two 100 MHz SGIs)
// joined by shared Ethernet, "which is relatively slow compared to
// interconnection networks found on multiprocessor machines" (§1).
//
// The virtual NOW is trace-driven: the farm performs the real rendering
// computation to obtain exact work quantities (rays traced, registrations
// made, pixels copied and scanned, messages handled, bytes held) and
// charges deterministic virtual time for them from a cost table and each
// machine's relative speed. The table's per-unit costs are ratios to a
// ray fitted from the wall-clock ledger (bench/), at the paper era's ray
// rate. Message transfers serialise on a shared bus. This reproduces the
// *shape* of Table 1 — who wins and by what factor — independent of the
// host the benchmarks run on.
package cluster

import (
	"fmt"
	"math"
	"time"
)

// Machine describes one workstation.
type Machine struct {
	Name string
	// Speed is the relative execution rate; the paper's fast SGI is 2.0
	// and the two slower ones 1.0.
	Speed float64
	// MemoryMB bounds working-set size (0 is unlimited). Work whose
	// working set exceeds it runs slowed by the cost model's swap penalty
	// (the paper credits part of its super-multiplicative speedup to the
	// increased aggregate memory of multiple machines).
	MemoryMB int
}

// The bus is the paper's: 10 Mbit/s shared Ethernet, 1 ms a message.
const (
	busLatency    = time.Millisecond
	busBitsPerSec = 10e6
)

// transferTime returns how long a message of n bytes occupies the bus.
func transferTime(n int) time.Duration {
	return busLatency + time.Duration(float64(n*8)/busBitsPerSec*float64(time.Second))
}

// PaperTestbed returns the three machines of §4: one SGI Indigo 2 at
// 200 MHz with 64 MB, one at 100 MHz with 32 MB, and an SGI Indigo at
// 100 MHz with 32 MB. (The paper's text drops leading digits of the
// memory sizes; 64/32/32 matches the era's configurations.)
func PaperTestbed() []Machine {
	return []Machine{
		{Name: "indigo2-200", Speed: 2.0, MemoryMB: 64},
		{Name: "indigo2-100", Speed: 1.0, MemoryMB: 32},
		{Name: "indigo-100", Speed: 1.0, MemoryMB: 32},
	}
}

// Uniform returns n identical machines of the given speed.
func Uniform(n int, speed float64, memMB int) []Machine {
	out := make([]Machine, n)
	for i := range out {
		out[i] = Machine{Name: fmt.Sprintf("ws%02d", i), Speed: speed, MemoryMB: memMB}
	}
	return out
}

// CostModel converts work quantities into seconds on a speed-1.0
// machine.
type CostModel struct {
	// SecPerRay is the cost of tracing one ray.
	SecPerRay float64
	// SecPerRegistration is the coherence bookkeeping cost per
	// voxel-pixel registration.
	SecPerRegistration float64
	// SecPerCopiedPixel is the cost of reusing a pixel from the
	// previous frame.
	SecPerCopiedPixel float64
	// SecPerScannedPixel is change detection's cost per region pixel
	// whose registration run is scanned for a changed voxel.
	SecPerScannedPixel float64
	// SecPerMessage is the master's cost of receiving one message and,
	// for a result, decoding and applying it; it handles one at a time.
	SecPerMessage float64
	// SwapPenalty multiplies execution time when a task's working set
	// exceeds the machine's memory.
	SwapPenalty float64
}

// paperRay is a ray on a speed-1.0 machine of the paper's era: the
// 200 MHz SGI traced ~50k rays/s, so 25k rays/s at speed 1.0.
const paperRay = 1.0 / 25000

// DefaultCostModel returns the cost table: each per-unit cost is its
// ratio to a ray, fitted from traced ledger runs (bench/ on newton-plain,
// newton-fc and newton-fc-farm, one core of a 2-vCPU Intel Xeon VM,
// 2026-10-15), times the paper era's ray.
// EXPERIMENTS.md ("The virtual clock, fitted") writes the arithmetic out.
func DefaultCostModel() CostModel {
	return CostModel{
		SecPerRay:          paperRay,
		SecPerRegistration: 0.359 * paperRay,
		SecPerCopiedPixel:  0.0317 * paperRay,
		SecPerScannedPixel: 0.0669 * paperRay,
		SecPerMessage:      146.7 * paperRay,
		// The one modelled constant: no ledger workload runs short of
		// memory, so nothing measures what paging costs. It keeps the
		// paper's aggregate-memory argument testable (AblationMemory).
		SwapPenalty: 1.6,
	}
}

// Work quantifies a task's computation for the cost model.
type Work struct {
	Rays          uint64
	Registrations uint64
	CopiedPixels  uint64
	ScannedPixels uint64
	// MemoryMB is the working set the work runs in.
	MemoryMB float64
}

// Seconds returns the execution time of w on a speed-1.0 machine.
func (c CostModel) Seconds(w Work) float64 {
	return float64(w.Rays)*c.SecPerRay +
		float64(w.Registrations)*c.SecPerRegistration +
		float64(w.CopiedPixels)*c.SecPerCopiedPixel +
		float64(w.ScannedPixels)*c.SecPerScannedPixel
}

// On returns the execution time of w on machine m, applying the swap
// penalty when the working set exceeds memory.
func (c CostModel) On(m Machine, w Work) time.Duration {
	s := c.Seconds(w) / m.Speed
	if m.MemoryMB > 0 && w.MemoryMB > float64(m.MemoryMB) && c.SwapPenalty > 1 {
		s *= c.SwapPenalty
	}
	return time.Duration(s * float64(time.Second))
}

// VirtualNOW is the deterministic virtual cluster: per-machine clocks
// plus a shared network bus.
type VirtualNOW struct {
	Machines []Machine
	Cost     CostModel

	clock []time.Duration
	// bus holds the reserved transfer intervals, kept sorted by start.
	// Interval reservation (rather than a single free pointer) lets the
	// trace-driven farm charge transfers out of global time order: a
	// machine whose clock lags can still claim an earlier free gap.
	bus []busSlot
}

type busSlot struct {
	start, end time.Duration
}

// NewVirtualNOW builds a virtual cluster charged by DefaultCostModel. At
// least one machine is required and all speeds must be positive.
func NewVirtualNOW(machines []Machine) (*VirtualNOW, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cluster: no machines")
	}
	for _, m := range machines {
		if m.Speed <= 0 {
			return nil, fmt.Errorf("cluster: machine %q has non-positive speed", m.Name)
		}
	}
	return &VirtualNOW{
		Machines: machines,
		Cost:     DefaultCostModel(),
		clock:    make([]time.Duration, len(machines)),
	}, nil
}

// Time returns machine i's current virtual clock.
func (v *VirtualNOW) Time(i int) time.Duration { return v.clock[i] }

// Exec charges machine i with executing work w, advancing its clock, and
// returns the completion time.
func (v *VirtualNOW) Exec(i int, w Work) time.Duration {
	v.clock[i] += v.Cost.On(v.Machines[i], w)
	return v.clock[i]
}

// Communicate charges a message of n bytes between the master and
// machine i: the transfer occupies the shared bus (serialising with all
// other transfers) and machine i cannot proceed until it completes. The
// transfer claims the earliest free bus interval at or after machine i's
// current clock.
func (v *VirtualNOW) Communicate(i int, n int) time.Duration {
	d := transferTime(n)
	v.clock[i] = v.reserveBus(v.clock[i], d) + d
	return v.clock[i]
}

// reserveBus books the earliest interval of length d starting at or
// after t and returns its start time. Reservations are kept sorted.
func (v *VirtualNOW) reserveBus(t time.Duration, d time.Duration) time.Duration {
	if d <= 0 {
		return t
	}
	start := t
	insert := len(v.bus)
	for idx, s := range v.bus {
		if s.end <= start {
			continue // slot entirely before our candidate start
		}
		if s.start >= start+d {
			// Gap before this slot fits the transfer.
			insert = idx
			break
		}
		// Overlap: move the candidate past this slot.
		start = s.end
		insert = idx + 1
	}
	v.bus = append(v.bus, busSlot{})
	copy(v.bus[insert+1:], v.bus[insert:])
	v.bus[insert] = busSlot{start: start, end: start + d}
	return start
}

// AdvanceTo moves machine i's clock forward to at least t (a worker
// idling while waiting for a task assignment).
func (v *VirtualNOW) AdvanceTo(i int, t time.Duration) {
	if v.clock[i] < t {
		v.clock[i] = t
	}
}

// Speedup is a convenience for reporting: baseline / parallel, guarding
// division by zero.
func Speedup(baseline, parallel time.Duration) float64 {
	if parallel <= 0 {
		return math.Inf(1)
	}
	return float64(baseline) / float64(parallel)
}
