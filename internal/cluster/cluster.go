// Package cluster models the network of workstations the paper ran on:
// a handful of heterogeneous machines (one 200 MHz and two 100 MHz SGIs)
// joined by shared Ethernet, "which is relatively slow compared to
// interconnection networks found on multiprocessor machines" (§1).
//
// The virtual NOW is trace-driven: the farm performs the real rendering
// computation to obtain exact work quantities (rays traced, pixels
// copied, registrations made) and charges deterministic virtual time for
// them according to a cost model and each machine's relative speed.
// Message transfers serialise on a shared bus. This reproduces the
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
	// MemoryMB bounds working-set size. Tasks whose memory need exceeds
	// it run slowed by the cost model's swap penalty (the paper credits
	// part of its super-multiplicative speedup to the increased
	// aggregate memory of multiple machines).
	MemoryMB int
}

// Ethernet models the shared-bus interconnect.
type Ethernet struct {
	// Latency is the fixed per-message overhead.
	Latency time.Duration
	// BandwidthBps is the shared bus bandwidth in bits per second.
	BandwidthBps float64
}

// TenBaseT returns the paper-era default: 10 Mbit/s shared Ethernet with
// 1 ms message latency.
func TenBaseT() Ethernet {
	return Ethernet{Latency: time.Millisecond, BandwidthBps: 10e6}
}

// TransferTime returns how long a message of n bytes occupies the bus.
func (e Ethernet) TransferTime(n int) time.Duration {
	if e.BandwidthBps <= 0 {
		return e.Latency
	}
	sec := float64(n*8) / e.BandwidthBps
	return e.Latency + time.Duration(sec*float64(time.Second))
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
// machine. Defaults are calibrated so the Newton benchmark lands in the
// paper's regimes (coherence overhead ~12% of first-frame time).
type CostModel struct {
	// SecPerRay is the cost of tracing one ray.
	SecPerRay float64
	// SecPerRegistration is the coherence bookkeeping cost per
	// voxel-pixel registration.
	SecPerRegistration float64
	// SecPerCopiedPixel is the cost of reusing a pixel from the
	// previous frame.
	SecPerCopiedPixel float64
	// SecPerChangeVoxel is the cost of examining one voxel during
	// change detection.
	SecPerChangeVoxel float64
	// SwapPenalty multiplies execution time when a task's working set
	// exceeds the machine's memory.
	SwapPenalty float64
}

// DefaultCostModel returns costs representative of the paper's era
// (late-90s SGI, ~50k rays/s on the 200 MHz machine ⇒ 25k rays/s at
// speed 1.0).
func DefaultCostModel() CostModel {
	return CostModel{
		SecPerRay:          1.0 / 25000,
		SecPerRegistration: 1.0 / 4e6,
		SecPerCopiedPixel:  1.0 / 2.5e6,
		SecPerChangeVoxel:  1.0 / 1e6,
		SwapPenalty:        1.6,
	}
}

// Work quantifies a task's computation for the cost model.
type Work struct {
	Rays          uint64
	Registrations uint64
	CopiedPixels  uint64
	ChangeVoxels  uint64
	// MemoryMB is the task's working-set estimate.
	MemoryMB int
}

// Seconds returns the execution time of w on a speed-1.0 machine.
func (c CostModel) Seconds(w Work) float64 {
	s := float64(w.Rays)*c.SecPerRay +
		float64(w.Registrations)*c.SecPerRegistration +
		float64(w.CopiedPixels)*c.SecPerCopiedPixel +
		float64(w.ChangeVoxels)*c.SecPerChangeVoxel
	return s
}

// On returns the execution time of w on machine m, applying the swap
// penalty when the working set exceeds memory.
func (c CostModel) On(m Machine, w Work) time.Duration {
	s := c.Seconds(w) / m.Speed
	if m.MemoryMB > 0 && w.MemoryMB > m.MemoryMB && c.SwapPenalty > 1 {
		s *= c.SwapPenalty
	}
	return time.Duration(s * float64(time.Second))
}

// VirtualNOW is the deterministic virtual cluster: per-machine clocks
// plus a shared network bus.
type VirtualNOW struct {
	Machines []Machine
	Net      Ethernet
	Cost     CostModel

	clock []time.Duration
	// bus holds the reserved transfer intervals, kept sorted by start.
	// Interval reservation (rather than a single free pointer) lets the
	// trace-driven farm charge transfers out of global time order: a
	// machine whose clock lags can still claim an earlier free gap.
	bus []busSlot
	// comm accumulates total time spent in communication, for the
	// utilisation reports.
	comm []time.Duration
	busy []time.Duration
}

type busSlot struct {
	start, end time.Duration
}

// NewVirtualNOW builds a virtual cluster. At least one machine is
// required and all speeds must be positive.
func NewVirtualNOW(machines []Machine, net Ethernet, cost CostModel) (*VirtualNOW, error) {
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
		Net:      net,
		Cost:     cost,
		clock:    make([]time.Duration, len(machines)),
		comm:     make([]time.Duration, len(machines)),
		busy:     make([]time.Duration, len(machines)),
	}, nil
}

// Time returns machine i's current virtual clock.
func (v *VirtualNOW) Time(i int) time.Duration { return v.clock[i] }

// CommTime returns the total communication time charged to machine i.
func (v *VirtualNOW) CommTime(i int) time.Duration { return v.comm[i] }

// Exec charges machine i with executing work w, advancing its clock, and
// returns the completion time.
func (v *VirtualNOW) Exec(i int, w Work) time.Duration {
	d := v.Cost.On(v.Machines[i], w)
	v.clock[i] += d
	v.busy[i] += d
	return v.clock[i]
}

// Communicate charges a message of n bytes between the master and
// machine i: the transfer occupies the shared bus (serialising with all
// other transfers) and machine i cannot proceed until it completes. The
// transfer claims the earliest free bus interval at or after machine i's
// current clock.
func (v *VirtualNOW) Communicate(i int, n int) time.Duration {
	d := v.Net.TransferTime(n)
	start := v.reserveBus(v.clock[i], d)
	end := start + d
	v.comm[i] += end - v.clock[i]
	v.clock[i] = end
	return end
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

// EarliestFree returns the machine whose clock is lowest — the worker
// that will next request a task in the request-driven schemes.
func (v *VirtualNOW) EarliestFree() int {
	best := 0
	for i := 1; i < len(v.clock); i++ {
		if v.clock[i] < v.clock[best] {
			best = i
		}
	}
	return best
}

// Makespan returns the largest machine clock — the virtual end-to-end
// time of the run so far.
func (v *VirtualNOW) Makespan() time.Duration {
	var m time.Duration
	for _, c := range v.clock {
		if c > m {
			m = c
		}
	}
	return m
}

// AdvanceTo moves machine i's clock forward to at least t (a worker
// idling while waiting for a task assignment).
func (v *VirtualNOW) AdvanceTo(i int, t time.Duration) {
	if v.clock[i] < t {
		v.clock[i] = t
	}
}

// Utilisation returns machine i's busy fraction of the current makespan.
func (v *VirtualNOW) Utilisation(i int) float64 {
	ms := v.Makespan()
	if ms <= 0 {
		return 0
	}
	return float64(v.busy[i]) / float64(ms)
}

// Speedup is a convenience for reporting: baseline / parallel, guarding
// division by zero.
func Speedup(baseline, parallel time.Duration) float64 {
	if parallel <= 0 {
		return math.Inf(1)
	}
	return float64(baseline) / float64(parallel)
}
