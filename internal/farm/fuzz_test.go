package farm

import (
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/msg"
	"nowrender/internal/partition"
	"nowrender/internal/stats"
)

// FuzzProtocolDecode proves every farm wire decoder is total: arbitrary
// bytes — including bit-flipped and truncated captures of real messages
// — either decode or return an error, and never panic. Combined with the
// CRC seal this is the master's license to treat a malformed message as
// "retire the sender" rather than "crash the run".
func FuzzProtocolDecode(f *testing.F) {
	// Seeds: real encodings of each message type, so the fuzzer starts
	// inside the interesting part of the input space.
	tm := taskMsg{
		Task: partition.Task{ID: 3, Region: fb.NewRect(1, 2, 33, 30), StartFrame: 0, EndFrame: 8},
		W:    40, H: 32, Coherence: true, Samples: 2, Threads: 2,
	}
	task := encodeTask(tm)
	// Every section of the fixed task layout populated.
	tm.WireFlags = wireFlagsMask
	tm.JobStart, tm.JobEnd, tm.Sinks, tm.OSShards = 0, 8, []string{"sink0", "127.0.0.1:7001"}, 4
	tm.AAThreshold = 0.1
	fullTask := encodeTask(tm)
	// Retired values must be rejected, not ignored: a task carrying the
	// old flate flag bit, and a frame result claiming encoding id 1.
	tm.WireFlags = capWireDelta | 1<<1
	retiredFlag := encodeTask(tm)
	retiredEnc := encodeFrameDone(frameDoneMsg{
		TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 4, 2),
		Kind: frameDelta, Encoding: 1, Pix: []byte{0x01},
	})
	fd := encodeFrameDone(frameDoneMsg{
		TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 4, 2),
		Pix:      make([]byte, 4*2*3),
		Rendered: 8, Copied: 2, Regs: 11,
		Rays:      stats.RayCounters{},
		ElapsedNs: 12345,
	})
	pair := encodePair(7, 42)
	// Delta and span-coded frames, so the fuzzer starts with the
	// kind/encoding/span section populated.
	var we frameEncoder
	src := fb.New(8, 8)
	dd := frameDoneMsg{TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 8, 8)}
	delta := we.Encode(&dd, src, capWireDelta, []fb.Span{{Y: 1, X0: 1, X1: 2}}, false)
	dd = frameDoneMsg{TaskID: 3, Frame: 5, Region: fb.NewRect(0, 0, 8, 8)}
	zipped := we.Encode(&dd, src, capWireDelta|capWireSpanCodec, nil, true)
	f.Add(task)
	f.Add(fullTask)
	f.Add(retiredFlag)
	f.Add(fd)
	f.Add(retiredEnc)
	f.Add(pair)
	f.Add(delta)
	f.Add(zipped)
	f.Add(encodeHello("ws01"))
	f.Add(encodePong(7, 42, 99))
	f.Add(task[:len(task)-5]) // truncated
	f.Add([]byte{})
	// A sealed-but-nonsense body: passes CRC, must fail validation.
	f.Add(msg.Seal([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if tm, err := decodeTask(data); err == nil {
			// A decode that succeeds must have passed validation: sane
			// geometry the worker can act on without allocating absurdly
			// or panicking in SetRGB.
			if tm.W <= 0 || tm.H <= 0 || tm.W > maxTaskDim || tm.H > maxTaskDim {
				t.Fatalf("decodeTask accepted resolution %dx%d", tm.W, tm.H)
			}
			r := tm.Task.Region
			if r.X0 < 0 || r.Y0 < 0 || r.X1 > tm.W || r.Y1 > tm.H || r.X0 >= r.X1 || r.Y0 >= r.Y1 {
				t.Fatalf("decodeTask accepted region %v outside %dx%d", r, tm.W, tm.H)
			}
			if tm.Task.StartFrame < 0 || tm.Task.EndFrame <= tm.Task.StartFrame {
				t.Fatalf("decodeTask accepted frame range [%d,%d)", tm.Task.StartFrame, tm.Task.EndFrame)
			}
			if tm.WireFlags&^wireFlagsMask != 0 {
				t.Fatalf("decodeTask accepted unknown wire flags %#x", tm.WireFlags)
			}
			if !(tm.AAThreshold >= 0 && tm.AAThreshold <= 1) {
				t.Fatalf("decodeTask accepted antialiasing threshold %v", tm.AAThreshold)
			}
		}
		if m, err := decodeFrameDone(data); err == nil {
			if m.Encoding != encRaw && m.Encoding != encSpan {
				t.Fatalf("decodeFrameDone accepted encoding id %d", m.Encoding)
			}
			m.Release()
		}
		_, _, _ = decodePair(data)
		_, _, _, _ = decodePong(data)
		_, _ = decodeHello(data)
	})
}

// TestProtocolDecodeRejectsDamage pins the CRC property the chaos layer
// leans on: every single-byte corruption and every truncation of a real
// task message is rejected at decode.
func TestProtocolDecodeRejectsDamage(t *testing.T) {
	enc := encodeTask(taskMsg{
		Task: partition.Task{ID: 1, Region: fb.NewRect(0, 0, 8, 8), StartFrame: 0, EndFrame: 4},
		W:    8, H: 8, Samples: 1,
	})
	if _, err := decodeTask(enc); err != nil {
		t.Fatalf("clean message rejected: %v", err)
	}
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if _, err := decodeTask(bad); err == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeTask(enc[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
}
