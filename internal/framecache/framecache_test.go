package framecache

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/tga"
)

// TestCacheEviction keeps the cache under its byte budget, LRU-first.
func TestCacheEviction(t *testing.T) {
	frameBytes := int64(32 * 32 * 3)
	c := New(3 * frameBytes)
	k := NewSeqKey("x", 32, 32, 1)
	for f := 0; f < 5; f++ {
		c.Put(Key{Seq: k, Frame: f}, fb.New(32, 32))
	}
	cs := c.Stats()
	if cs.Entries != 3 || cs.Bytes != 3*frameBytes {
		t.Fatalf("entries=%d bytes=%d, want 3 entries / %d bytes", cs.Entries, cs.Bytes, 3*frameBytes)
	}
	if cs.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", cs.Evictions)
	}
	// LRU: oldest frames (0, 1) were evicted.
	if _, ok := c.Get(Key{Seq: k, Frame: 0}); ok {
		t.Fatal("frame 0 survived eviction")
	}
	if _, ok := c.Get(Key{Seq: k, Frame: 4}); !ok {
		t.Fatal("frame 4 missing")
	}
}

// TestCacheEvictionTable drives put/get sequences against a 3-frame
// budget and checks exactly which entries survive: eviction is LRU and a
// get refreshes recency.
func TestCacheEvictionTable(t *testing.T) {
	const side = 32
	frameBytes := int64(side * side * 3)
	type op struct {
		kind  string // "put" | "get"
		frame int
	}
	cases := []struct {
		name          string
		budget        int64
		ops           []op
		wantPresent   []int
		wantAbsent    []int
		wantEvictions uint64
	}{
		{
			name:        "lru-evicts-oldest",
			budget:      3 * frameBytes,
			ops:         []op{{"put", 0}, {"put", 1}, {"put", 2}, {"put", 3}, {"put", 4}},
			wantPresent: []int{2, 3, 4}, wantAbsent: []int{0, 1},
			wantEvictions: 2,
		},
		{
			name:        "get-refreshes-recency",
			budget:      3 * frameBytes,
			ops:         []op{{"put", 0}, {"put", 1}, {"put", 2}, {"get", 0}, {"put", 3}},
			wantPresent: []int{0, 2, 3}, wantAbsent: []int{1},
			wantEvictions: 1,
		},
		{
			name:        "duplicate-put-refreshes-not-grows",
			budget:      3 * frameBytes,
			ops:         []op{{"put", 0}, {"put", 1}, {"put", 2}, {"put", 0}, {"put", 3}},
			wantPresent: []int{0, 2, 3}, wantAbsent: []int{1},
			wantEvictions: 1,
		},
		{
			name:        "frame-larger-than-budget-not-cached",
			budget:      frameBytes - 1,
			ops:         []op{{"put", 0}},
			wantPresent: nil, wantAbsent: []int{0},
			wantEvictions: 0,
		},
		{
			name:        "unlimited-budget-keeps-all",
			budget:      0,
			ops:         []op{{"put", 0}, {"put", 1}, {"put", 2}, {"put", 3}, {"put", 4}},
			wantPresent: []int{0, 1, 2, 3, 4}, wantAbsent: nil,
			wantEvictions: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.budget)
			k := NewSeqKey("scene", side, side, 1)
			for _, o := range tc.ops {
				switch o.kind {
				case "put":
					c.Put(Key{Seq: k, Frame: o.frame}, fb.New(side, side))
				case "get":
					c.Get(Key{Seq: k, Frame: o.frame})
				}
			}
			for _, f := range tc.wantPresent {
				if _, ok := c.Get(Key{Seq: k, Frame: f}); !ok {
					t.Errorf("frame %d missing", f)
				}
			}
			for _, f := range tc.wantAbsent {
				if _, ok := c.Get(Key{Seq: k, Frame: f}); ok {
					t.Errorf("frame %d unexpectedly present", f)
				}
			}
			cs := c.Stats()
			if cs.Evictions != tc.wantEvictions {
				t.Errorf("evictions = %d, want %d", cs.Evictions, tc.wantEvictions)
			}
			if tc.budget > 0 && cs.Bytes > tc.budget {
				t.Errorf("cache holds %d bytes over budget %d", cs.Bytes, tc.budget)
			}
		})
	}
}

// TestCacheTTLTable pins the lazy-expiry clockwork with an injected
// clock: entries serve until their deadline passes strictly, a stale hit
// counts as an expiry plus a miss, and re-putting a key pushes its
// deadline out.
func TestCacheTTLTable(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	cases := []struct {
		name    string
		ttl     time.Duration
		advance time.Duration
		wantHit bool
	}{
		{"no-ttl-never-expires", 0, 1000 * time.Hour, true},
		{"fresh-within-ttl", time.Minute, 59 * time.Second, true},
		{"exactly-at-deadline-still-served", time.Minute, time.Minute, true},
		{"stale-past-deadline", time.Minute, time.Minute + time.Second, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewTTL(0, tc.ttl)
			now := base
			c.now = func() time.Time { return now }
			k := Key{Seq: NewSeqKey("s", 8, 8, 1), Frame: 0}
			c.Put(k, fb.New(8, 8))
			now = base.Add(tc.advance)
			_, ok := c.Get(k)
			if ok != tc.wantHit {
				t.Fatalf("hit = %v, want %v", ok, tc.wantHit)
			}
			cs := c.Stats()
			if tc.wantHit {
				if cs.Expired != 0 || cs.Entries != 1 {
					t.Errorf("expired=%d entries=%d, want 0/1", cs.Expired, cs.Entries)
				}
			} else {
				// A stale entry is dropped, counted, and its bytes freed.
				if cs.Expired != 1 || cs.Misses != 1 || cs.Entries != 0 || cs.Bytes != 0 {
					t.Errorf("expired=%d misses=%d entries=%d bytes=%d, want 1/1/0/0",
						cs.Expired, cs.Misses, cs.Entries, cs.Bytes)
				}
			}
		})
	}
}

// TestCacheTTLRefreshOnReput: re-producing a cached frame pushes its
// expiry out from the new production time.
func TestCacheTTLRefreshOnReput(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	c := NewTTL(0, time.Minute)
	now := base
	c.now = func() time.Time { return now }
	k := Key{Seq: NewSeqKey("s", 8, 8, 1), Frame: 0}
	c.Put(k, fb.New(8, 8))
	now = base.Add(40 * time.Second)
	c.Put(k, fb.New(8, 8)) // refresh: new deadline is t+40s+60s
	now = base.Add(90 * time.Second)
	if _, ok := c.Get(k); !ok {
		t.Fatal("refreshed entry expired on the original deadline")
	}
	now = base.Add(101 * time.Second)
	if _, ok := c.Get(k); ok {
		t.Fatal("entry survived past its refreshed deadline")
	}
}

// --- in-flight coalescing -------------------------------------------------

// TestAcquireLeadFollowComplete: first caller leads, later callers
// follow, Put feeds every follower the same framebuffer.
func TestAcquireLeadFollowComplete(t *testing.T) {
	c := New(0)
	k := Key{Seq: NewSeqKey("s", 8, 8, 1), Frame: 3}

	img, wait, lead := c.Acquire(k)
	if img != nil || wait != nil || !lead {
		t.Fatalf("first acquire = (%v, %v, %v), want lead", img, wait, lead)
	}
	if !c.InFlight(k) {
		t.Fatal("flight not registered")
	}

	var waits []<-chan *fb.Framebuffer
	for i := 0; i < 3; i++ {
		img, w, lead := c.Acquire(k)
		if img != nil || lead || w == nil {
			t.Fatalf("follower acquire %d = (%v, %v, %v), want wait channel", i, img, w, lead)
		}
		waits = append(waits, w)
	}

	frame := fb.New(8, 8)
	c.Put(k, frame)
	for i, w := range waits {
		got, ok := <-w
		if !ok || got != frame {
			t.Fatalf("follower %d received (%v, %v), want the produced frame", i, got, ok)
		}
		if _, ok := <-w; ok {
			t.Fatalf("follower %d channel not closed after delivery", i)
		}
	}
	if c.InFlight(k) {
		t.Fatal("flight survived Put")
	}
	cs := c.Stats()
	if cs.Coalesced != 3 || cs.FlightsLed != 1 {
		t.Fatalf("coalesced=%d flightsLed=%d, want 3/1", cs.Coalesced, cs.FlightsLed)
	}
	// Afterwards it is a plain cache hit.
	if img, wait, lead := c.Acquire(k); img == nil || wait != nil || lead {
		t.Fatalf("post-completion acquire = (%v, %v, %v), want hit", img, wait, lead)
	}
}

// TestAbortReleasesFollowers: an aborted flight closes follower
// channels empty, and the next Acquire leads again.
func TestAbortReleasesFollowers(t *testing.T) {
	c := New(0)
	k := Key{Seq: NewSeqKey("s", 8, 8, 1), Frame: 0}
	if _, _, lead := c.Acquire(k); !lead {
		t.Fatal("first acquire did not lead")
	}
	_, w, _ := c.Acquire(k)
	c.Abort(k)
	if got, ok := <-w; ok {
		t.Fatalf("aborted follower received %v", got)
	}
	c.Abort(k) // idempotent
	if _, _, lead := c.Acquire(k); !lead {
		t.Fatal("acquire after abort did not lead")
	}
	c.Abort(k)
}

// TestPutOverBudgetStillFeedsFollowers: a frame too large to cache
// still completes its flight.
func TestPutOverBudgetStillFeedsFollowers(t *testing.T) {
	c := New(10) // smaller than any frame
	k := Key{Seq: NewSeqKey("s", 8, 8, 1), Frame: 0}
	if _, _, lead := c.Acquire(k); !lead {
		t.Fatal("lead")
	}
	_, w, _ := c.Acquire(k)
	frame := fb.New(8, 8)
	c.Put(k, frame)
	if got, ok := <-w; !ok || got != frame {
		t.Fatalf("follower got (%v, %v)", got, ok)
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("over-budget frame was cached")
	}
}

// TestCoalescingConcurrent hammers one key from many goroutines: every
// acquirer ends with the same frame and exactly one production runs.
func TestCoalescingConcurrent(t *testing.T) {
	c := New(0)
	k := Key{Seq: NewSeqKey("s", 16, 16, 1), Frame: 0}
	frame := fb.New(16, 16)
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		leads     int
		delivered int
	)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img, wait, lead := c.Acquire(k)
			switch {
			case lead:
				mu.Lock()
				leads++
				mu.Unlock()
				c.Put(k, frame)
			case wait != nil:
				if got, ok := <-wait; ok && got == frame {
					mu.Lock()
					delivered++
					mu.Unlock()
				}
			case img != nil:
				mu.Lock()
				delivered++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if leads != 1 {
		t.Fatalf("leads = %d, want exactly 1", leads)
	}
	if delivered != 31 {
		t.Fatalf("delivered = %d, want 31", delivered)
	}
}

// --- encoded form beside the pixels ---------------------------------------

// noiseFrame returns a frame of seeded random pixels and its TGA file as
// tga.Encode writes it.
func noiseFrame(t *testing.T, w, h int, seed int64) (*fb.Framebuffer, []byte) {
	t.Helper()
	img := fb.New(w, h)
	rand.New(rand.NewSource(seed)).Read(img.Pix)
	var buf bytes.Buffer
	if err := tga.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return img, buf.Bytes()
}

// mustTGA is Cache.TGA checked against the file tga.Encode writes.
func mustTGA(t *testing.T, c *Cache, k Key, img *fb.Framebuffer, want []byte) {
	t.Helper()
	got, err := c.TGA(k, img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame %d: TGA bytes differ from tga.Encode", k.Frame)
	}
}

// TestTGAChargedOnce: the first TGA call on a cached frame builds the
// file and charges it to the budget, the second returns the same slice
// and charges nothing, and no encoded lookup counts as a hit or a miss.
func TestTGAChargedOnce(t *testing.T) {
	c := New(0)
	k := Key{Seq: NewSeqKey("s", 12, 10, 1), Frame: 3}
	img, file := noiseFrame(t, 12, 10, 1)
	c.Put(k, img)
	pix, enc := int64(len(img.Pix)), int64(len(file))
	if cs := c.Stats(); cs.Bytes != pix || cs.EncodedBytes != 0 {
		t.Fatalf("before: bytes=%d encoded=%d, want %d/0", cs.Bytes, cs.EncodedBytes, pix)
	}
	mustTGA(t, c, k, img, file)
	first, _ := c.TGA(k, img)
	if cs := c.Stats(); cs.Bytes != pix+enc || cs.EncodedBytes != enc {
		t.Fatalf("after two calls: bytes=%d encoded=%d, want %d/%d", cs.Bytes, cs.EncodedBytes, pix+enc, enc)
	}
	second, _ := c.TGA(k, img)
	if &first[0] != &second[0] {
		t.Error("repeat calls returned different slices: the file was rebuilt")
	}
	if cs := c.Stats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Errorf("hits=%d misses=%d after encoded lookups only, want 0/0", cs.Hits, cs.Misses)
	}
}

// TestTGAUncachedChargesNothing: a key that was never cached, one that
// was evicted, and a frame too large for its file to fit beside its
// pixels all get correct bytes, built for that caller alone.
func TestTGAUncachedChargesNothing(t *testing.T) {
	img, file := noiseFrame(t, 16, 16, 2)
	pix := int64(len(img.Pix))
	seq := NewSeqKey("s", 16, 16, 1)

	c := New(pix) // one frame of pixels, no room for its file
	mustTGA(t, c, Key{Seq: seq, Frame: 0}, img, file)
	if cs := c.Stats(); cs.Bytes != 0 || cs.Entries != 0 {
		t.Fatalf("never cached: bytes=%d entries=%d, want 0/0", cs.Bytes, cs.Entries)
	}
	c.Put(Key{Seq: seq, Frame: 0}, img)
	mustTGA(t, c, Key{Seq: seq, Frame: 0}, img, file)
	if cs := c.Stats(); cs.Bytes != pix || cs.EncodedBytes != 0 || cs.Entries != 1 || cs.Evictions != 0 {
		t.Fatalf("file does not fit: bytes=%d encoded=%d entries=%d evictions=%d, want %d/0/1/0",
			cs.Bytes, cs.EncodedBytes, cs.Entries, cs.Evictions, pix)
	}
	c.Put(Key{Seq: seq, Frame: 1}, img) // evicts frame 0
	mustTGA(t, c, Key{Seq: seq, Frame: 0}, img, file)
	cs := c.Stats()
	if cs.Bytes != pix || cs.EncodedBytes != 0 || cs.Entries != 1 {
		t.Fatalf("evicted: bytes=%d encoded=%d entries=%d, want %d/0/1", cs.Bytes, cs.EncodedBytes, cs.Entries, pix)
	}
	if cs.Hits != 0 || cs.Misses != 0 {
		t.Errorf("hits=%d misses=%d, want 0/0", cs.Hits, cs.Misses)
	}
}

// TestTGAEvictsFromTail: a file that pushes the cache over budget makes
// room from the LRU tail, never from the entry it belongs to; evicting
// an entry releases its pixels and its file together; and pixels plus
// files never exceed the budget.
func TestTGAEvictsFromTail(t *testing.T) {
	const side = 16
	pix := int64(side * side * 3)
	var imgs [4]*fb.Framebuffer
	var files [4][]byte
	for f := range imgs {
		imgs[f], files[f] = noiseFrame(t, side, side, int64(f))
	}
	// A file is charged its encoded length; noise frames of one size
	// encode to one length.
	enc := int64(len(files[0]))
	for f := range files {
		if int64(len(files[f])) != enc {
			t.Fatalf("file %d is %d bytes, file 0 %d", f, len(files[f]), enc)
		}
	}
	seq := NewSeqKey("s", side, side, 1)
	c := New(2*pix + 2*enc) // three frames and a file, or two and two
	check := func(when string, bytes, encoded int64, entries int, evictions uint64) {
		t.Helper()
		cs := c.Stats()
		if cs.Bytes != bytes || cs.EncodedBytes != encoded || cs.Entries != entries || cs.Evictions != evictions {
			t.Fatalf("%s: bytes=%d encoded=%d entries=%d evictions=%d, want %d/%d/%d/%d",
				when, cs.Bytes, cs.EncodedBytes, cs.Entries, cs.Evictions, bytes, encoded, entries, evictions)
		}
		if cs.Bytes > cs.Budget {
			t.Fatalf("%s: %d bytes cached over a budget of %d", when, cs.Bytes, cs.Budget)
		}
	}
	for f := 0; f < 3; f++ {
		c.Put(Key{Seq: seq, Frame: f}, imgs[f])
	}
	// Frame 0 is the LRU tail; its own file must not evict it.
	mustTGA(t, c, Key{Seq: seq, Frame: 0}, imgs[0], files[0])
	check("first file fits", 3*pix+enc, enc, 3, 0)
	// A second file does not fit: frame 1, now the tail, goes.
	mustTGA(t, c, Key{Seq: seq, Frame: 2}, imgs[2], files[2])
	check("second file evicts the tail", 2*pix+2*enc, 2*enc, 2, 1)
	if _, ok := c.Get(Key{Seq: seq, Frame: 1}); ok {
		t.Fatal("frame 1 survived; the tail was not what got evicted")
	}
	// A new frame evicts frame 0 (the tail again), pixels and file both.
	c.Put(Key{Seq: seq, Frame: 3}, imgs[3])
	check("put evicts pixels and file together", 2*pix+enc, enc, 2, 2)
	if _, ok := c.Get(Key{Seq: seq, Frame: 0}); ok {
		t.Fatal("frame 0 survived")
	}
}

// TestTGAExpiresWithEntry: TTL expiry releases pixels and file together,
// whether a Get or an encoded lookup finds the entry stale, and a stale
// entry still yields correct bytes.
func TestTGAExpiresWithEntry(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	img, file := noiseFrame(t, 8, 8, 5)
	k := Key{Seq: NewSeqKey("s", 8, 8, 1), Frame: 0}
	for _, finder := range []string{"get", "tga"} {
		c := NewTTL(0, time.Minute)
		now := base
		c.now = func() time.Time { return now }
		c.Put(k, img)
		mustTGA(t, c, k, img, file)
		if cs := c.Stats(); cs.EncodedBytes != int64(len(file)) {
			t.Fatalf("%s: encoded=%d before expiry, want %d", finder, cs.EncodedBytes, len(file))
		}
		now = base.Add(2 * time.Minute)
		wantMisses := uint64(0)
		if finder == "get" {
			if _, ok := c.Get(k); ok {
				t.Fatal("stale entry served")
			}
			wantMisses = 1
		} else {
			mustTGA(t, c, k, img, file)
		}
		cs := c.Stats()
		if cs.Bytes != 0 || cs.EncodedBytes != 0 || cs.Entries != 0 || cs.Expired != 1 || cs.Misses != wantMisses {
			t.Errorf("%s: bytes=%d encoded=%d entries=%d expired=%d misses=%d, want 0/0/0/1/%d",
				finder, cs.Bytes, cs.EncodedBytes, cs.Entries, cs.Expired, cs.Misses, wantMisses)
		}
	}
}

// TestTGAHitShareUntouched: interleaving encoded lookups with Gets
// leaves the hit and miss counters exactly where the Gets put them.
func TestTGAHitShareUntouched(t *testing.T) {
	c := New(0)
	seq := NewSeqKey("s", 8, 8, 1)
	img, file := noiseFrame(t, 8, 8, 6)
	c.Put(Key{Seq: seq, Frame: 0}, img)
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(Key{Seq: seq, Frame: 0}); !ok {
			t.Fatal("miss on a cached frame")
		}
		mustTGA(t, c, Key{Seq: seq, Frame: 0}, img, file)
		mustTGA(t, c, Key{Seq: seq, Frame: 9}, img, file) // not cached
	}
	if cs := c.Stats(); cs.Hits != 5 || cs.Misses != 0 || cs.HitRate() != 1 {
		t.Errorf("hits=%d misses=%d rate=%g, want 5/0/1", cs.Hits, cs.Misses, cs.HitRate())
	}
}

// TestTGAFirstFetchRace: goroutines racing on the first fetch of one
// frame all get the same bytes and the file is charged once. Run under
// -race.
func TestTGAFirstFetchRace(t *testing.T) {
	c := New(0)
	k := Key{Seq: NewSeqKey("s", 40, 30, 1), Frame: 0}
	img, file := noiseFrame(t, 40, 30, 8)
	c.Put(k, img)
	const racers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([][]byte, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = c.TGA(k, img)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !bytes.Equal(got[i], file) {
			t.Fatalf("racer %d: err=%v, bytes equal=%v", i, errs[i], bytes.Equal(got[i], file))
		}
	}
	want := int64(len(img.Pix) + len(file))
	if cs := c.Stats(); cs.Bytes != want || cs.EncodedBytes != int64(len(file)) {
		t.Fatalf("bytes=%d encoded=%d after the race, want %d/%d (one charge)", cs.Bytes, cs.EncodedBytes, want, len(file))
	}
}

// TestTGARefusesOversize: the encoder's refusal reaches the caller and
// nothing is stored.
func TestTGARefusesOversize(t *testing.T) {
	c := New(0)
	k := Key{Seq: NewSeqKey("s", 65536, 1, 1), Frame: 0}
	img := fb.New(65536, 1)
	c.Put(k, img)
	if data, err := c.TGA(k, img); err == nil || data != nil {
		t.Fatalf("TGA of a 65536-wide frame: %d bytes, err=%v; want a refusal", len(data), err)
	}
	if cs := c.Stats(); cs.EncodedBytes != 0 || cs.Bytes != int64(len(img.Pix)) {
		t.Errorf("bytes=%d encoded=%d after a refused encode", cs.Bytes, cs.EncodedBytes)
	}
}
