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
	// Payload: sealed [worker name][frame-done bytes].
	TagRelayPix
	// TagNeedKey (sink→worker) asks for a fresh key-frame after a base
	// miss broke the delta chain. Payload: pair (frame, generation).
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

// Init configures a sink for a run.
type Init struct {
	// Gen is the master's init generation for this sink: bumped on every
	// re-dial, echoed in confirmations, so the master can discard stale
	// confirmations from before a sink restart.
	Gen  int
	W, H int
	// Start, End is the absolute frame shard [Start, End) this sink owns.
	Start, End int
}

func EncodeInit(in Init) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackInt(int64(in.Gen))
	b.PackInt(int64(in.W))
	b.PackInt(int64(in.H))
	b.PackInt(int64(in.Start))
	b.PackInt(int64(in.End))
	return b.Sealed()
}

func DecodeInit(data []byte) (Init, error) {
	body, err := msg.Open(data)
	if err != nil {
		return Init{}, fmt.Errorf("compositor: bad init: %w", err)
	}
	b := msg.FromBytes(body)
	var in Init
	in.Gen = int(b.UnpackInt())
	in.W = int(b.UnpackInt())
	in.H = int(b.UnpackInt())
	in.Start = int(b.UnpackInt())
	in.End = int(b.UnpackInt())
	if err := b.Err(); err != nil {
		return Init{}, fmt.Errorf("compositor: bad init: %w", err)
	}
	if in.W <= 0 || in.H <= 0 || in.W > wire.MaxDim || in.H > wire.MaxDim {
		return Init{}, fmt.Errorf("compositor: bad init resolution %dx%d", in.W, in.H)
	}
	if in.Start < 0 || in.End <= in.Start || in.End > wire.MaxDim {
		return Init{}, fmt.Errorf("compositor: bad init shard [%d,%d)", in.Start, in.End)
	}
	return in, nil
}

// Delivered confirms one merged result to the master.
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

func EncodeDelivered(d Delivered) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackInt(int64(d.Gen))
	b.PackInt(int64(d.Frame))
	b.PackInt(int64(d.Region.X0))
	b.PackInt(int64(d.Region.Y0))
	b.PackInt(int64(d.Region.X1))
	b.PackInt(int64(d.Region.Y1))
	b.PackString(d.Worker)
	b.PackInt(int64(d.Kind))
	b.PackInt(int64(d.WireBytes))
	b.PackInt(int64(d.RawBytes))
	b.PackBool(d.Complete)
	return b.Sealed()
}

func DecodeDelivered(data []byte) (Delivered, error) {
	body, err := msg.Open(data)
	if err != nil {
		return Delivered{}, fmt.Errorf("compositor: bad delivered: %w", err)
	}
	b := msg.FromBytes(body)
	var d Delivered
	d.Gen = int(b.UnpackInt())
	d.Frame = int(b.UnpackInt())
	d.Region = fb.NewRect(int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()))
	d.Worker = b.UnpackString()
	d.Kind = int(b.UnpackInt())
	d.WireBytes = int(b.UnpackInt())
	d.RawBytes = int(b.UnpackInt())
	d.Complete = b.UnpackBool()
	if err := b.Err(); err != nil {
		return Delivered{}, fmt.Errorf("compositor: bad delivered: %w", err)
	}
	return d, nil
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

// Miss reports an unapplicable result to the master.
type Miss struct {
	Gen    int
	Frame  int
	Region fb.Rect
	Worker string
	Reason int
}

func EncodeMiss(mm Miss) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackInt(int64(mm.Gen))
	b.PackInt(int64(mm.Frame))
	b.PackInt(int64(mm.Region.X0))
	b.PackInt(int64(mm.Region.Y0))
	b.PackInt(int64(mm.Region.X1))
	b.PackInt(int64(mm.Region.Y1))
	b.PackString(mm.Worker)
	b.PackInt(int64(mm.Reason))
	return b.Sealed()
}

func DecodeMiss(data []byte) (Miss, error) {
	body, err := msg.Open(data)
	if err != nil {
		return Miss{}, fmt.Errorf("compositor: bad miss: %w", err)
	}
	b := msg.FromBytes(body)
	var mm Miss
	mm.Gen = int(b.UnpackInt())
	mm.Frame = int(b.UnpackInt())
	mm.Region = fb.NewRect(int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()), int(b.UnpackInt()))
	mm.Worker = b.UnpackString()
	mm.Reason = int(b.UnpackInt())
	if err := b.Err(); err != nil {
		return Miss{}, fmt.Errorf("compositor: bad miss: %w", err)
	}
	return mm, nil
}

// EncodeJoin packs a worker's data-conn handshake.
func EncodeJoin(worker string) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackString(worker)
	return b.Sealed()
}

func DecodeJoin(data []byte) (string, error) {
	body, err := msg.Open(data)
	if err != nil {
		return "", fmt.Errorf("compositor: bad join: %w", err)
	}
	b := msg.FromBytes(body)
	w := b.UnpackString()
	if err := b.Err(); err != nil {
		return "", fmt.Errorf("compositor: bad join: %w", err)
	}
	return w, nil
}

// EncodeRelay wraps a worker's master-routed frame-done bytes with its
// name for master→sink relay.
func EncodeRelay(worker string, frameDone []byte) []byte {
	b := msg.GetBuffer()
	defer b.Release()
	b.PackString(worker)
	b.PackBytes(frameDone)
	return b.Sealed()
}

func DecodeRelay(data []byte) (worker string, frameDone []byte, err error) {
	body, err := msg.Open(data)
	if err != nil {
		return "", nil, fmt.Errorf("compositor: bad relay: %w", err)
	}
	b := msg.FromBytes(body)
	worker = b.UnpackString()
	frameDone = b.UnpackBytes()
	if err := b.Err(); err != nil {
		return "", nil, fmt.Errorf("compositor: bad relay: %w", err)
	}
	return worker, frameDone, nil
}

// EncodePair packs the two-int payload TagNeedKey uses (frame, gen).
func EncodePair(a, b int) []byte {
	buf := msg.GetBuffer()
	defer buf.Release()
	buf.PackInt(int64(a))
	buf.PackInt(int64(b))
	return buf.Sealed()
}

// DecodePair unpacks a two-int payload.
func DecodePair(data []byte) (int, int, error) {
	body, err := msg.Open(data)
	if err != nil {
		return 0, 0, fmt.Errorf("compositor: bad pair: %w", err)
	}
	b := msg.FromBytes(body)
	x := int(b.UnpackInt())
	y := int(b.UnpackInt())
	if err := b.Err(); err != nil {
		return 0, 0, fmt.Errorf("compositor: bad pair: %w", err)
	}
	return x, y, nil
}
