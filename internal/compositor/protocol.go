package compositor

import (
	"fmt"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/wire"
)

// Message tags of the sink protocol. They live in their own range so a
// trace mixing farm and sink traffic stays readable; every connection
// is dedicated (worker↔sink or master↔sink), so no tag ever shares a
// conn with the farm's master↔worker tags.
const (
	// TagInit (master→sink) configures a sink for a run: generation,
	// resolution, and the shard's frame range. The conn it arrives on
	// becomes the control conn that receives confirmations. Re-sent with
	// a bumped generation when the master re-dials a restarted sink.
	TagInit = iota + 101
	// TagJoin (worker→sink) names the worker behind a data conn; the
	// sink uses it to attribute results and route key-frame re-requests.
	TagJoin
	// TagPix (worker→sink) carries one frame result, encoded exactly as
	// the farm's TagFrameDone payload (the shared internal/wire codec).
	TagPix
	// TagRelayPix (master→sink) relays a master-routed result — from a
	// worker that could not reach the sink, or a quarantined frame the
	// master rendered itself — so assembly still happens in one place.
	// Payload: Relay.
	TagRelayPix
	// TagNeedKey (sink→worker) asks for a fresh key-frame after a base
	// miss broke the delta chain. Payload: NeedKey.
	TagNeedKey
	// TagDelivered (sink→master) confirms one result merged into the
	// shard assembly; the master's bookkeeping marks the (frame, region)
	// delivered only on this confirmation, never on the worker's ack.
	TagDelivered
	// TagMiss (sink→master) reports a result the sink could not apply
	// (base miss, malformed, out of shard); the master counts it and
	// requeues the frame through the normal retry path.
	TagMiss
	// TagClose (master→sink) ends the run on a persistent sink daemon.
	TagClose
)

// Init configures a sink for a run (TagInit).
type Init struct {
	// Gen is the master's init generation for this sink: bumped on every
	// re-dial, echoed in confirmations, so the master can discard stale
	// confirmations from before a sink restart.
	Gen  int
	W, H int
	// Start, End is the absolute frame shard [Start, End) this sink owns.
	Start, End int
}

func (in *Init) Fields(b *msg.Buffer) {
	b.Int(&in.Gen)
	b.Int(&in.W)
	b.Int(&in.H)
	b.Int(&in.Start)
	b.Int(&in.End)
}

// Validate rejects a resolution or a shard no master would configure.
func (in *Init) Validate() error {
	if in.W <= 0 || in.H <= 0 || in.W > wire.MaxDim || in.H > wire.MaxDim {
		return fmt.Errorf("resolution %dx%d", in.W, in.H)
	}
	if in.Start < 0 || in.End <= in.Start || in.End > wire.MaxDim {
		return fmt.Errorf("shard [%d,%d)", in.Start, in.End)
	}
	return nil
}

// Delivered confirms one merged result to the master (TagDelivered).
type Delivered struct {
	Gen    int
	Frame  int
	Region fb.Rect
	// Worker attributes the result (empty when unknown).
	Worker string
	// Kind is the result's wire.Kind*; WireBytes what it cost on the
	// sink link; RawBytes the raw pixels it represents.
	Kind      int
	WireBytes int
	RawBytes  int
	// Complete marks that this delivery finished the frame's assembly.
	Complete bool
}

func (d *Delivered) Fields(b *msg.Buffer) {
	b.Int(&d.Gen)
	b.Int(&d.Frame)
	wire.RectFields(b, &d.Region)
	b.String(&d.Worker)
	b.Int(&d.Kind)
	b.Int(&d.WireBytes)
	b.Int(&d.RawBytes)
	b.Bool(&d.Complete)
}

// Miss reasons (Miss.Reason).
const (
	// MissBase: the delta's base result never landed at the sink.
	MissBase = iota
	// MissMalformed: the payload failed decode or span validation.
	MissMalformed
	// MissShard: the result's frame lies outside the sink's shard.
	MissShard
)

// Miss reports an unapplicable result to the master (TagMiss).
type Miss struct {
	Gen    int
	Frame  int
	Region fb.Rect
	Worker string
	Reason int
}

func (mm *Miss) Fields(b *msg.Buffer) {
	b.Int(&mm.Gen)
	b.Int(&mm.Frame)
	wire.RectFields(b, &mm.Region)
	b.String(&mm.Worker)
	b.Int(&mm.Reason)
}

// Join is a worker's data-conn handshake (TagJoin).
type Join struct{ Worker string }

func (j *Join) Fields(b *msg.Buffer) { b.String(&j.Worker) }

// Relay wraps a worker's master-routed frame-done bytes with its name
// (TagRelayPix). FrameDone aliases the received message.
type Relay struct {
	Worker    string
	FrameDone []byte
}

func (r *Relay) Fields(b *msg.Buffer) {
	b.String(&r.Worker)
	b.Bytes(&r.FrameDone)
}

// NeedKey asks a worker for a fresh key-frame (TagNeedKey).
type NeedKey struct{ Frame, Gen int }

func (k *NeedKey) Fields(b *msg.Buffer) {
	b.Int(&k.Frame)
	b.Int(&k.Gen)
}
