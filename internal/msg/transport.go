package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
)

// Message is a tagged payload, the unit of communication (PVM's
// send-with-msgtag model).
type Message struct {
	// Tag identifies the message type; the farm defines its tag space.
	Tag int
	// From names the sender (filled in by the receiving side's hub when
	// routing; point-to-point Conns leave it to senders).
	From string
	// Data is the packed payload. Ownership transfers on Send and again
	// on Recv: senders must not touch Data after Send returns (the
	// in-process pipe hands the very same slice to the peer), and
	// receivers own the delivered Data outright, so decoders may alias
	// it instead of copying. See the buffer ownership contract in
	// pool.go.
	Data []byte
}

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("msg: connection closed")

// Conn is a bidirectional, ordered, reliable message pipe between two
// endpoints — the abstraction both the in-process and TCP transports
// satisfy.
type Conn interface {
	// Send delivers m to the peer and takes ownership of m.Data; the
	// caller must not modify or reuse the slice afterwards. Safe for
	// concurrent use.
	Send(m Message) error
	// Recv blocks for the next message. Returns ErrClosed (possibly
	// wrapped) after the peer closes.
	Recv() (Message, error)
	// Close releases the connection; pending Recv calls unblock.
	Close() error
}

// pipeState is the shared shutdown state of a Pipe: closing either end
// closes both, exactly once.
type pipeState struct {
	done chan struct{}
	once sync.Once
}

func (p *pipeState) close() {
	p.once.Do(func() { close(p.done) })
}

// chanConn is one end of an in-process pipe.
type chanConn struct {
	out   chan<- Message
	in    <-chan Message
	state *pipeState
}

// Pipe returns two connected in-process Conns, each with a buffered
// queue of cap messages (0 means a reasonable default). This transport
// backs the virtual NOW where "workstations" are goroutines.
func Pipe(capacity int) (Conn, Conn) {
	if capacity <= 0 {
		capacity = 64
	}
	ab := make(chan Message, capacity)
	ba := make(chan Message, capacity)
	st := &pipeState{done: make(chan struct{})}
	a := &chanConn{out: ab, in: ba, state: st}
	b := &chanConn{out: ba, in: ab, state: st}
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m Message) error {
	select {
	case <-c.state.done:
		return ErrClosed
	default:
	}
	select {
	case c.out <- m:
		return nil
	case <-c.state.done:
		return ErrClosed
	}
}

// Recv implements Conn.
func (c *chanConn) Recv() (Message, error) {
	select {
	case m := <-c.in:
		return m, nil
	case <-c.state.done:
		// Drain anything already queued before reporting closure.
		select {
		case m := <-c.in:
			return m, nil
		default:
			return Message{}, ErrClosed
		}
	}
}

// Close implements Conn. Closing either end closes both.
func (c *chanConn) Close() error {
	c.state.close()
	return nil
}

// tcpConn frames messages over a net.Conn:
// [4-byte big-endian total length][4-byte tag][4-byte fromLen][from][payload].
type tcpConn struct {
	nc     net.Conn
	sendMu sync.Mutex
	// head, iov and vec are Send's scratch, under sendMu: the framing
	// header with the sender's name, and the two-buffer vector that
	// writes it and the payload in one writev (WriteTo consumes vec, so
	// it is re-sliced from iov each time).
	head   []byte
	iov    [2][]byte
	vec    net.Buffers
	recvMu sync.Mutex
	// from is Recv's scratch for the sender's name, under recvMu.
	from    []byte
	maxSize uint32
}

// MaxMessageSize bounds a framed message (guards against corrupt
// streams allocating unbounded memory). 64 MiB comfortably holds a full
// 24-bit frame plus headers.
const MaxMessageSize = 64 << 20

// newTCPConn wraps an established net.Conn in the message framing.
func newTCPConn(nc net.Conn) Conn {
	return &tcpConn{nc: nc, maxSize: MaxMessageSize}
}

// Dial connects to a TCP worker/master at addr.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msg: dial %s: %w", addr, err)
	}
	return newTCPConn(nc), nil
}

// Listener accepts framed-message connections.
type Listener struct {
	nl net.Listener
}

// Listen starts a TCP listener at addr (e.g. ":0" for an ephemeral
// port).
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("msg: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }

// Send implements Conn. The header and the sender's name go out with
// the payload in one writev (net.Buffers), so the payload is never
// copied, and once it is written the payload returns to the byte pool.
// A failed write is ErrClosed, as a failed read is in Recv: the peer is
// gone (a broken pipe, a reset) or the connection was closed here.
func (c *tcpConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	total := 4 + 4 + len(m.From) + len(m.Data)
	if uint32(total) > c.maxSize {
		return fmt.Errorf("msg: message of %d bytes exceeds limit", total)
	}
	h := binary.BigEndian.AppendUint32(c.head[:0], uint32(total))
	h = binary.BigEndian.AppendUint32(h, uint32(m.Tag))
	h = binary.BigEndian.AppendUint32(h, uint32(len(m.From)))
	c.head = append(h, m.From...)
	c.iov = [2][]byte{c.head, m.Data}
	c.vec = c.iov[:]
	_, err := c.vec.WriteTo(c.nc)
	// Hold no reference to the payload past the send.
	c.iov, c.vec = [2][]byte{}, nil
	if err != nil {
		return fmt.Errorf("%w: send: %v", ErrClosed, err)
	}
	PutBytes(m.Data)
	return nil
}

// Recv implements Conn. The header and the sender's name are read into
// connection scratch, and the payload into storage from the byte pool,
// which the receiver then owns.
func (c *tcpConn) Recv() (Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	// Every frame has its length, tag and name length: 12 bytes.
	var head [12]byte
	if _, err := io.ReadFull(c.nc, head[:]); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	total := binary.BigEndian.Uint32(head[0:])
	if total < 8 || total > c.maxSize {
		return Message{}, fmt.Errorf("msg: bad frame length %d", total)
	}
	tag := int(int32(binary.BigEndian.Uint32(head[4:])))
	fromLen := binary.BigEndian.Uint32(head[8:])
	if fromLen > total-8 {
		return Message{}, fmt.Errorf("msg: bad from length %d", fromLen)
	}
	c.from = append(c.from[:0], make([]byte, fromLen)...)
	if _, err := io.ReadFull(c.nc, c.from); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	var data []byte
	if n := int(total - 8 - fromLen); n > 0 {
		data = GetBytes(n)
		if _, err := io.ReadFull(c.nc, data); err != nil {
			return Message{}, fmt.Errorf("%w: %v", ErrClosed, err)
		}
	}
	return Message{Tag: tag, From: string(c.from), Data: data}, nil
}

// Close implements Conn.
func (c *tcpConn) Close() error { return c.nc.Close() }

// TagDown is delivered by a Hub when a slave's connection fails: the
// PVM host-failure notification (pvm_notify) the paper-era masters used
// to survive workstation crashes. The Message carries the slave's name
// in From and no payload.
const TagDown = -0x7FFFFFFF

// Hub multiplexes a master's connections to named slaves: sends are
// routed by name and receives are merged into one stream, tagging each
// message with the slave it came from (PVM's pvm_recv(-1, tag) "receive
// from anyone"). A slave whose connection fails produces one TagDown
// message.
type Hub struct {
	mu      sync.Mutex
	conns   map[string]Conn
	closing bool
	inbox   chan Message
	wg      sync.WaitGroup
	errs    chan error
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{
		conns: make(map[string]Conn),
		inbox: make(chan Message, 256),
		errs:  make(chan error, 16),
	}
}

// Attach registers a slave connection under name and starts pumping its
// messages into the shared inbox.
func (h *Hub) Attach(name string, c Conn) error {
	h.mu.Lock()
	if _, dup := h.conns[name]; dup {
		h.mu.Unlock()
		return fmt.Errorf("msg: duplicate slave %q", name)
	}
	h.conns[name] = c
	h.mu.Unlock()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			m, err := c.Recv()
			if err != nil {
				select {
				case h.errs <- err:
				default:
				}
				// Notify the master unless the hub itself is closing.
				h.mu.Lock()
				closing := h.closing
				h.mu.Unlock()
				if !closing {
					select {
					case h.inbox <- Message{Tag: TagDown, From: name}:
					default:
					}
				}
				return
			}
			m.From = name
			h.inbox <- m
		}
	}()
	return nil
}

// Post injects a synthetic local message into the hub's merged stream —
// the master uses it to interleave timer ticks with slave traffic so its
// event loop stays single-threaded. Posts are best-effort: a full inbox
// or a closing hub drops the message (another tick always follows).
func (h *Hub) Post(m Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closing {
		return
	}
	select {
	case h.inbox <- m:
	default:
	}
}

// Detach closes one slave's connection, severing a worker the master has
// retired (hung, malformed, or past its deadline). The slave's receive
// pump observes the closure and posts its TagDown as usual; callers that
// already retired the worker ignore it. Detaching an unknown name is a
// no-op.
func (h *Hub) Detach(name string) {
	h.mu.Lock()
	c, ok := h.conns[name]
	h.mu.Unlock()
	if ok {
		c.Close()
	}
}

// Names returns the attached slave names, sorted, so a master that
// walks them makes the same choices on every run.
func (h *Hub) Names() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.conns))
	for n := range h.conns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Send routes a message to the named slave.
func (h *Hub) Send(to string, m Message) error {
	h.mu.Lock()
	c, ok := h.conns[to]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("msg: unknown slave %q", to)
	}
	return c.Send(m)
}

// Recv blocks for the next message from any slave.
func (h *Hub) Recv() (Message, error) {
	m, ok := <-h.inbox
	if !ok {
		return Message{}, ErrClosed
	}
	return m, nil
}

// Close closes every slave connection and the inbox. Close is
// idempotent: callers racing a context-cancellation watcher (see
// farm.RunMaster) both return cleanly.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closing {
		h.mu.Unlock()
		return nil
	}
	h.closing = true
	for _, c := range h.conns {
		c.Close()
	}
	h.mu.Unlock()
	h.wg.Wait()
	close(h.inbox)
	return nil
}
