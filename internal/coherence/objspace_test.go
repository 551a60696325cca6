package coherence

import (
	"bytes"
	"fmt"
	"testing"

	"nowrender/internal/fb"
	"nowrender/internal/objspace"
)

// TestObjSpaceByteIdentity renders the same sequence with a replicated
// engine and with object-space shards and demands byte-identical frames
// plus identical per-frame reports: the partition must change who
// intersects each ray, never the hit — and therefore never which pixels
// the coherence machinery predicts dirty.
func TestObjSpaceByteIdentity(t *testing.T) {
	const frames = 4
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := movingScene(frames)
			full := fb.NewRect(0, 0, tw, th)
			ref, err := NewEngine(s, tw, th, full, 0, frames, Options{})
			if err != nil {
				t.Fatal(err)
			}
			sh, err := NewEngine(s, tw, th, full, 0, frames, Options{ObjSpaceShards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var forwarded uint64
			for f := 0; f < frames; f++ {
				a, b := fb.New(tw, th), fb.New(tw, th)
				ra, err := ref.RenderFrame(f, a)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := sh.RenderFrame(f, b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a.Pix, b.Pix) {
					t.Fatalf("frame %d: sharded pixels differ from replicated", f)
				}
				if ra.Rays != rb.Rays {
					t.Fatalf("frame %d: ray counters differ: %+v vs %+v", f, ra.Rays, rb.Rays)
				}
				if ra.Rendered != rb.Rendered || ra.Copied != rb.Copied || ra.DirtyNext != rb.DirtyNext {
					t.Fatalf("frame %d: coherence reports differ: %+v vs %+v", f, ra, rb)
				}
				if ra.Registrations != rb.Registrations {
					t.Fatalf("frame %d: registration counts differ: %d vs %d", f, ra.Registrations, rb.Registrations)
				}
				if ra.Forwarded != 0 {
					t.Fatalf("frame %d: replicated engine reported %d forwards", f, ra.Forwarded)
				}
				forwarded += rb.Forwarded
			}
			if forwarded == 0 {
				t.Fatal("sharded engine never forwarded a ray")
			}
			if ref.ObjSpaceStats() != nil {
				t.Error("replicated engine has object-space stats")
			}
			if sh.ObjSpaceStats() == nil || sh.ObjSpaceStats().RaysForwarded() != forwarded {
				t.Errorf("engine stats disagree with summed reports")
			}
		})
	}
}

func TestObjSpaceRejectsBadShardCounts(t *testing.T) {
	s := staticScene(2)
	full := fb.NewRect(0, 0, tw, th)
	for _, n := range []int{-1, 1, objspace.MaxShards + 1} {
		if _, err := NewEngine(s, tw, th, full, 0, 2, Options{ObjSpaceShards: n}); err == nil {
			t.Errorf("shard count %d accepted", n)
		}
	}
}
