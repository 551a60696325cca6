package cluster

import (
	"math"
	"testing"
	"time"
)

func TestEthernetTransferTime(t *testing.T) {
	// 1 MB over 10 Mbps = 0.8 s + 1 ms latency.
	d := transferTime(1 << 20)
	want := time.Millisecond + time.Duration(float64(1<<20)*8/10e6*float64(time.Second))
	if d != want {
		t.Errorf("transfer = %v, want %v", d, want)
	}
}

func TestPaperTestbed(t *testing.T) {
	ms := PaperTestbed()
	if len(ms) != 3 {
		t.Fatalf("%d machines", len(ms))
	}
	if ms[0].Speed != 2.0 || ms[1].Speed != 1.0 || ms[2].Speed != 1.0 {
		t.Error("speeds do not match the paper's 200/100/100 MHz machines")
	}
}

func TestUniform(t *testing.T) {
	ms := Uniform(4, 1.5, 128)
	if len(ms) != 4 || ms[3].Speed != 1.5 || ms[0].Name == ms[1].Name {
		t.Errorf("uniform = %+v", ms)
	}
}

func TestCostModelSeconds(t *testing.T) {
	c := CostModel{SecPerRay: 0.001, SecPerRegistration: 0.0001, SecPerCopiedPixel: 0.00001, SecPerScannedPixel: 0.000001}
	w := Work{Rays: 1000, Registrations: 100, CopiedPixels: 10, ScannedPixels: 10}
	got := c.Seconds(w)
	want := 1.0 + 0.01 + 0.0001 + 0.00001
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Seconds = %v, want %v", got, want)
	}
}

func TestCostModelSpeedScaling(t *testing.T) {
	c := CostModel{SecPerRay: 0.001}
	fast := Machine{Speed: 2, MemoryMB: 64}
	slow := Machine{Speed: 1, MemoryMB: 64}
	w := Work{Rays: 2000}
	df := c.On(fast, w)
	ds := c.On(slow, w)
	if ds != 2*df {
		t.Errorf("fast=%v slow=%v; slow should be exactly 2x", df, ds)
	}
}

func TestCostModelSwapPenalty(t *testing.T) {
	c := CostModel{SecPerRay: 0.001, SwapPenalty: 2}
	m := Machine{Speed: 1, MemoryMB: 32}
	fits := Work{Rays: 1000, MemoryMB: 16}
	thrashes := Work{Rays: 1000, MemoryMB: 64}
	if got := c.On(m, thrashes); got != 2*c.On(m, fits) {
		t.Errorf("swap penalty not applied: %v", got)
	}
	// No penalty when memory is unlimited (0).
	m0 := Machine{Speed: 1}
	if c.On(m0, thrashes) != c.On(m0, fits) {
		t.Error("penalty applied with unlimited memory")
	}
}

func TestVirtualNOWValidation(t *testing.T) {
	if _, err := NewVirtualNOW(nil); err == nil {
		t.Error("empty cluster accepted")
	}
	if _, err := NewVirtualNOW([]Machine{{Speed: 0}}); err == nil {
		t.Error("zero-speed machine accepted")
	}
}

func TestVirtualNOWExec(t *testing.T) {
	v, err := NewVirtualNOW(PaperTestbed())
	if err != nil {
		t.Fatal(err)
	}
	v.Cost = CostModel{SecPerRay: 0.001}
	// Same work: fast machine finishes in half the time.
	v.Exec(0, Work{Rays: 1000}) // 0.5s at speed 2
	v.Exec(1, Work{Rays: 1000}) // 1.0s at speed 1
	if v.Time(0) != 500*time.Millisecond {
		t.Errorf("fast clock = %v", v.Time(0))
	}
	if v.Time(1) != time.Second {
		t.Errorf("slow clock = %v", v.Time(1))
	}
	if v.Time(2) != 0 {
		t.Errorf("idle clock = %v", v.Time(2))
	}
}

func TestVirtualNOWBusSerialises(t *testing.T) {
	v, _ := NewVirtualNOW(Uniform(2, 1, 0))
	d := transferTime(1000)
	// Two simultaneous transfers: the second waits for the bus.
	end0 := v.Communicate(0, 1000)
	end1 := v.Communicate(1, 1000)
	if end0 != d {
		t.Errorf("first transfer ends %v, want %v", end0, d)
	}
	if end1 != 2*d {
		t.Errorf("second transfer should queue behind the first: %v, want %v", end1, 2*d)
	}
	if v.Time(1) != 2*d {
		t.Errorf("the queued machine's clock = %v, want %v", v.Time(1), 2*d)
	}
}

func TestVirtualNOWBusEarlyGapClaim(t *testing.T) {
	// A machine whose clock lags can claim a bus gap before an existing
	// future reservation — required because the trace-driven farm
	// processes events out of global time order.
	d := transferTime(1)
	v, _ := NewVirtualNOW(Uniform(2, 1, 0))
	v.Cost = CostModel{SecPerRay: 1}
	// Machine 1 runs far ahead and books the bus at t=100s.
	v.Exec(1, Work{Rays: 100})
	if end := v.Communicate(1, 1); end != 100*time.Second+d {
		t.Fatalf("future reservation ends %v", end)
	}
	// Machine 0 at t=0 transfers now: the bus is free before 100s.
	if end := v.Communicate(0, 1); end != d {
		t.Errorf("early transfer ends %v, want %v (gap before future slot)", end, d)
	}
	// A third transfer at t=0 longer than 100s must go after the 100s
	// slot (no such gap before it).
	v2, _ := NewVirtualNOW(Uniform(2, 1, 0))
	v2.Cost = CostModel{SecPerRay: 1}
	v2.Exec(1, Work{Rays: 100})
	v2.Communicate(1, 1) // [100s, 100s+d)
	long := transferTime(125_000_000)
	if end := v2.Communicate(0, 125_000_000); end != 100*time.Second+d+long {
		t.Errorf("long transfer ends %v, want %v (after the future slot)", end, 100*time.Second+d+long)
	}
}

func TestVirtualNOWAdvanceTo(t *testing.T) {
	v, _ := NewVirtualNOW(Uniform(1, 1, 0))
	v.AdvanceTo(0, 5*time.Second)
	if v.Time(0) != 5*time.Second {
		t.Errorf("clock = %v", v.Time(0))
	}
	v.AdvanceTo(0, time.Second) // never goes backwards
	if v.Time(0) != 5*time.Second {
		t.Error("AdvanceTo moved clock backwards")
	}
}

func TestVirtualNOWDeterminism(t *testing.T) {
	run := func() [3]time.Duration {
		v, _ := NewVirtualNOW(PaperTestbed())
		for i := 0; i < 100; i++ {
			w := i % 3
			v.Communicate(w, 128)
			v.Exec(w, Work{Rays: uint64(1000 + i*17), Registrations: uint64(i * 3)})
			v.Communicate(w, 4096)
		}
		return [3]time.Duration{v.Time(0), v.Time(1), v.Time(2)}
	}
	if run() != run() {
		t.Error("virtual cluster not deterministic")
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(10*time.Second, 2*time.Second); got != 5 {
		t.Errorf("speedup = %v", got)
	}
	if !math.IsInf(Speedup(time.Second, 0), 1) {
		t.Error("zero parallel time should be +Inf")
	}
}
