package timeline

// OffsetEstimator estimates the constant offset mapping one worker's
// recorder clock onto the master's, so shipped worker events merge into
// the cluster timeline with corrected timestamps.
//
// Two sample sources feed it, in preference order:
//
//   - Heartbeat RTTs (Cristian's algorithm): the master stamps its
//     clock into each ping, the worker answers with the stamp plus its
//     own clock, and the sample with the smallest round trip gives the
//     tightest bound — offset = worker_now - (t_send + rtt/2), accurate
//     to ±rtt/2.
//   - One-way result messages: every shipped frame result carries the
//     worker clock at encode time; master_recv - worker_now
//     overestimates the offset by the (unknowable one-way) transit
//     latency, so the minimum over the run is the best fallback when
//     heartbeats are off.
//
// Both clocks are monotonic (time.Since an epoch), so a single constant
// per worker suffices and correction preserves per-track event order.
type OffsetEstimator struct {
	hasRTT    bool
	bestRTT   int64
	rttOffset int64

	hasOneWay bool
	oneWayMin int64
}

// AddRTT feeds one heartbeat sample: the master clock at ping send
// (sendNs) and at pong receipt (recvNs), and the worker clock stamped
// into the pong (workerNs). Samples with nonsense timing are ignored.
func (o *OffsetEstimator) AddRTT(sendNs, recvNs, workerNs int64) {
	rtt := recvNs - sendNs
	if rtt < 0 {
		return
	}
	if !o.hasRTT || rtt < o.bestRTT {
		o.hasRTT = true
		o.bestRTT = rtt
		o.rttOffset = workerNs - (sendNs + rtt/2)
	}
}

// AddOneWay feeds one result-message sample: the master clock at
// receipt and the worker clock stamped at encode time.
func (o *OffsetEstimator) AddOneWay(recvNs, workerNs int64) {
	d := workerNs - recvNs
	if !o.hasOneWay || d > o.oneWayMin {
		// workerNs - recvNs = offset - transit: the largest sample has
		// the least transit baked in.
		o.hasOneWay = true
		o.oneWayMin = d
	}
}

// Offset returns the estimated worker→master correction in nanoseconds:
// add it to a worker timestamp to place the event on the master clock.
// Zero when no samples arrived.
func (o *OffsetEstimator) Offset() int64 {
	switch {
	case o.hasRTT:
		return -o.rttOffset
	case o.hasOneWay:
		return -o.oneWayMin
	}
	return 0
}

// Quality describes which source produced the estimate: "rtt",
// "one-way" or "none".
func (o *OffsetEstimator) Quality() string {
	switch {
	case o.hasRTT:
		return "rtt"
	case o.hasOneWay:
		return "one-way"
	}
	return "none"
}
