// Package framecache is the content-addressed frame store extracted
// from the service monolith. It lifts the paper's frame coherence to
// the service level twice over:
//
//   - Across time: where the coherence engine reuses pixels between
//     consecutive frames of one run, the cache reuses whole frames
//     between *jobs* — a resubmitted or overlapping animation is served
//     from memory with zero new rays traced (LRU under a byte budget,
//     optional TTL). An entry is the frame's pixels plus, from the
//     first time someone fetches it as a file, its encoded TGA: a
//     repeat fetch is then a copy of bytes, not a re-encode.
//
//   - Across concurrent requests: in-flight coalescing. The first
//     caller to Acquire a missing frame becomes its producer; everyone
//     else Acquiring the same frame before it lands gets a wait channel
//     fed by the producer's Put. Two tenants rendering the same
//     scene+frame concurrently therefore cost exactly one render, with
//     both progress streams fed from the single flight.
//
// Frames are addressed by content, not by job: the key hashes the scene
// source, the output resolution, the pixel-affecting render options and
// the frame number. Options that provably do not change pixels are
// excluded on purpose — the repo's tested invariant is that every farm
// mode, partition scheme, and the coherence engine itself produce
// pixel-identical frames, so two jobs differing only in scheme or
// coherence share cache entries and flights.
package framecache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"time"

	"nowrender/internal/fb"
	"nowrender/internal/stats"
	"nowrender/internal/tga"
)

// SeqKey addresses a rendered animation: scene source + resolution +
// pixel-affecting options.
type SeqKey [sha256.Size]byte

// NewSeqKey hashes the identity of a rendered sequence. source is the
// canonical scene text (builtin spec or SDL source); samples is the
// supersampling factor, the one exposed option that changes pixels.
func NewSeqKey(source string, w, h, samples int) SeqKey {
	hsh := sha256.New()
	var dims [12]byte
	binary.BigEndian.PutUint32(dims[0:], uint32(w))
	binary.BigEndian.PutUint32(dims[4:], uint32(h))
	binary.BigEndian.PutUint32(dims[8:], uint32(samples))
	hsh.Write(dims[:])
	hsh.Write([]byte(source))
	var k SeqKey
	hsh.Sum(k[:0])
	return k
}

// Key addresses one frame of a sequence.
type Key struct {
	Seq   SeqKey
	Frame int
}

// centry is one cached frame on the LRU list.
type centry struct {
	key Key
	img *fb.Framebuffer
	// encoded is the frame as a TGA file, built by the first TGA call
	// and nil until then. Shared and immutable like img.
	encoded []byte
	// size is what the entry is charged against the budget: len(img.Pix)
	// plus len(encoded).
	size int64
	// expires is when the entry stops being servable (zero = never).
	expires time.Time
}

// flight is one in-production frame: followers wait on their channels
// until the producer Puts the frame (each channel receives it and
// closes) or Aborts (channels close empty).
type flight struct {
	subs []chan *fb.Framebuffer
}

// Cache is a content-addressed frame store with LRU eviction under a
// byte budget, optional per-entry TTL expiry, and in-flight request
// coalescing. Cached framebuffers are shared, immutable-by-contract
// values: callers must not modify what Get returns or Put receives.
type Cache struct {
	mu     sync.Mutex
	budget int64
	ttl    time.Duration
	bytes  int64 // pixels plus encoded forms
	// encodedBytes is the share of bytes that is encoded forms.
	encodedBytes int64
	ll           *list.List // front = most recently used
	items        map[Key]*list.Element
	// flights tracks frames some producer is currently rendering.
	flights map[Key]*flight
	// now is the clock, swappable by tests.
	now func() time.Time

	hits, misses, evictions, expired uint64
	coalesced, flightsLed            uint64
}

// New returns a cache bounded to budget bytes of frame data: the cached
// pixels plus the encoded forms TGA builds beside them.
// budget <= 0 means unlimited.
func New(budget int64) *Cache {
	return NewTTL(budget, 0)
}

// NewTTL is New with per-entry expiry: entries older than ttl are
// dropped lazily, on the lookup that finds them stale (ttl <= 0 =
// never expire). Pixels never go wrong with age — the cache is
// content-addressed — so the TTL's job is reclaiming memory from
// animations nobody re-requests, not invalidation.
func NewTTL(budget int64, ttl time.Duration) *Cache {
	return &Cache{
		budget:  budget,
		ttl:     ttl,
		ll:      list.New(),
		items:   make(map[Key]*list.Element),
		flights: make(map[Key]*flight),
		now:     time.Now,
	}
}

// removeLocked drops an entry from the list, the index and the byte
// account; callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*centry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	c.encodedBytes -= int64(len(e.encoded))
}

// evictLocked drops least-recently-used entries until the cache fits
// its budget; callers hold c.mu.
func (c *Cache) evictLocked() {
	for c.budget > 0 && c.bytes > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// liveLocked returns k's entry, marked most recently used, or nil when
// k is not cached; a stale entry is dropped and counted expired. It
// counts no hit or miss. Callers hold c.mu.
func (c *Cache) liveLocked(k Key) *centry {
	el, ok := c.items[k]
	if !ok {
		return nil
	}
	e := el.Value.(*centry)
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.expired++
		return nil
	}
	c.ll.MoveToFront(el)
	return e
}

// lookupLocked returns the live cached frame for k, expiring stale
// entries; callers hold c.mu.
func (c *Cache) lookupLocked(k Key) (*fb.Framebuffer, bool) {
	e := c.liveLocked(k)
	if e == nil {
		c.misses++
		return nil, false
	}
	c.hits++
	return e.img, true
}

// Get returns the cached frame and marks it most recently used; a stale
// entry is dropped and reported as a miss.
func (c *Cache) Get(k Key) (*fb.Framebuffer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(k)
}

// TGA returns img, the frame k addresses, as a run-length 24-bit TGA
// file. While k is cached the bytes are built once, by the first call,
// and kept on the entry — charged to the byte budget like the pixels
// (evicting from the LRU tail to make room) and released with them; a
// frame that is not cached, or whose two forms together would not fit
// the budget, is encoded for this caller alone. Either way the bytes
// are those of tga.Encode. The lookup counts as a use of the entry but
// not as a hit or a miss: the caller already holds the frame. The
// returned slice is shared and must not be modified.
func (c *Cache) TGA(k Key, img *fb.Framebuffer) ([]byte, error) {
	c.mu.Lock()
	e := c.liveLocked(k)
	var data []byte
	if e != nil {
		data = e.encoded
	}
	c.mu.Unlock()
	if data != nil {
		return data, nil
	}
	// Encode outside the lock: a large frame must not stall every other
	// job's lookups. Racing first fetches each encode; one result is kept.
	data, err := tga.Bytes(img)
	if err != nil || e == nil {
		return data, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	e = c.liveLocked(k)
	switch n := int64(len(data)); {
	case e == nil:
		// Evicted or expired meanwhile.
	case e.encoded != nil:
		data = e.encoded
	case c.budget <= 0 || e.size+n <= c.budget:
		e.encoded = data
		e.size += n
		c.bytes += n
		c.encodedBytes += n
		c.evictLocked() // e is at the front, so it is the last to go
	}
	return data, nil
}

// Acquire is the coalescing lookup. Exactly one of the three outcomes
// holds:
//
//   - cache hit: img is non-nil;
//   - another producer is rendering k: wait is non-nil and will receive
//     the frame then close (or close empty if the producer aborts);
//   - the caller leads: lead is true, and the caller MUST eventually
//     Put(k, frame) or Abort(k), or followers block until their own
//     contexts fire.
func (c *Cache) Acquire(k Key) (img *fb.Framebuffer, wait <-chan *fb.Framebuffer, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if img, ok := c.lookupLocked(k); ok {
		return img, nil, false
	}
	if f, ok := c.flights[k]; ok {
		ch := make(chan *fb.Framebuffer, 1)
		f.subs = append(f.subs, ch)
		c.coalesced++
		return nil, ch, false
	}
	c.flights[k] = &flight{}
	c.flightsLed++
	return nil, nil, true
}

// Put inserts (or refreshes) a frame, completes any in-flight
// production of the same key (followers each receive img), and evicts
// least-recently-used entries until the cache fits its budget. A frame
// larger than the whole budget is not cached — but still completes the
// flight, so coalesced followers are fed either way.
func (c *Cache) Put(k Key, img *fb.Framebuffer) {
	size := int64(len(img.Pix))
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[k]; ok {
		delete(c.flights, k)
		for _, ch := range f.subs {
			ch <- img
			close(ch)
		}
	}
	if c.budget > 0 && size > c.budget {
		return
	}
	if el, ok := c.items[k]; ok {
		// Content-addressed: same key, same pixels. Refresh recency and
		// push the expiry out — the entry was just re-produced.
		el.Value.(*centry).expires = c.expiry()
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&centry{key: k, img: img, size: size, expires: c.expiry()})
	c.bytes += size
	c.evictLocked()
}

// Abort ends an in-flight production without a frame: followers' wait
// channels close empty, and they fall back to producing (or re-joining)
// the frame themselves. No-op when no flight is registered — aborting
// after a successful Put is safe.
func (c *Cache) Abort(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flights[k]
	if !ok {
		return
	}
	delete(c.flights, k)
	for _, ch := range f.subs {
		close(ch)
	}
}

// InFlight reports whether some producer currently owns k.
func (c *Cache) InFlight(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.flights[k]
	return ok
}

// expiry computes a fresh entry's deadline (zero when no TTL is set);
// callers hold c.mu.
func (c *Cache) expiry() time.Time {
	if c.ttl <= 0 {
		return time.Time{}
	}
	return c.now().Add(c.ttl)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() stats.CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return stats.CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Expired: c.expired,
		Coalesced: c.coalesced, FlightsLed: c.flightsLed, InFlight: len(c.flights),
		Entries: c.ll.Len(), Bytes: c.bytes, EncodedBytes: c.encodedBytes, Budget: c.budget,
	}
}
