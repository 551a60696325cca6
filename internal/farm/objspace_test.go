package farm

import (
	"fmt"
	"testing"

	"nowrender/internal/partition"
)

// TestObjSpaceGolden pins the object-space farm modes to the committed
// golden hashes: sharded rendering — plain and coherent, local and
// virtual — must produce byte-identical frames to every other mode, while
// actually forwarding rays between shard owners.
func TestObjSpaceGolden(t *testing.T) {
	sc := farmScene(goldenFrames)
	want := readGolden(t)
	scheme := partition.Scheme{BlockW: 16, BlockH: 16, Adaptive: true}

	for _, coh := range []bool{false, true} {
		for _, shards := range []int{2, 4} {
			label := fmt.Sprintf("local/coherence=%v,shards=%d", coh, shards)
			res, err := RenderLocal(Config{
				Scene: sc, W: fw, H: fh, Coherence: coh, Workers: 3,
				Scheme: scheme, ObjSpaceShards: shards,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for i, h := range hashFrames(res.Frames) {
				if h != want[i] {
					t.Errorf("%s: frame %d hash mismatch", label, i)
				}
			}
			if !res.ObjSpace.Enabled() {
				t.Fatalf("%s: no object-space stats came back: %+v", label, res.ObjSpace)
			}
			if res.ObjSpace.RaysForwarded == 0 || res.ObjSpace.ForwardBytes == 0 {
				t.Errorf("%s: no forwarding traffic recorded: %s", label, res.ObjSpace)
			}
			if got := len(res.ObjSpace.PerShard); got != shards {
				t.Errorf("%s: %d per-shard rows, want %d", label, got, shards)
			}
		}
	}

	// Virtual driver: same pixels, deterministic forwarding counters.
	res, err := RenderVirtual(Config{
		Scene: sc, W: fw, H: fh, Coherence: true,
		Scheme: scheme, ObjSpaceShards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hashFrames(res.Frames) {
		if h != want[i] {
			t.Errorf("virtual objspace: frame %d hash mismatch", i)
		}
	}
	if res.ObjSpace.RaysForwarded == 0 {
		t.Error("virtual objspace: no forwarding modelled")
	}
}

// TestObjSpaceConfigValidation rejects shard counts the wire would.
func TestObjSpaceConfigValidation(t *testing.T) {
	sc := farmScene(2)
	for _, n := range []int{1, -3, 100} {
		if _, err := RenderVirtual(Config{Scene: sc, W: fw, H: fh, ObjSpaceShards: n}); err == nil {
			t.Errorf("shard count %d accepted", n)
		}
	}
}
