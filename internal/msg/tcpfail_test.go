package msg

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// TCP failure-path tests: a physical NOW loses workstations mid-run (the
// paper's PVM masters relied on pvm_notify for exactly this), so the
// transport must turn every abrupt peer failure into a prompt error —
// never a hang, never a panic.

// tcpPair returns two connected tcpConns plus the raw server-side
// net.Conn for byte-level fault injection.
func tcpPair(t *testing.T) (client Conn, server Conn, rawServer net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- nc
	}()
	cc, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := <-accepted
	if !ok {
		cc.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return newTCPConn(cc), newTCPConn(sc), sc
}

// recvResult runs Recv in a goroutine so tests can bound how long it
// blocks.
func recvResult(c Conn) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		ch <- err
	}()
	return ch
}

func waitErr(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Recv still blocked after 5s", what)
		return nil
	}
}

func TestTCPDialDeadAddress(t *testing.T) {
	// Grab a port that is certainly not listening by binding and
	// immediately releasing it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatalf("Dial(%s) to a dead address succeeded", addr)
	}
}

func TestTCPPeerClosesMidMessage(t *testing.T) {
	client, _, raw := tcpPair(t)
	// Write a frame header promising 100 bytes, deliver only 10, then
	// close: the reader is mid-io.ReadFull on the body.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	errCh := recvResult(client)
	time.Sleep(20 * time.Millisecond) // let Recv reach the body read
	raw.Close()
	err := waitErr(t, errCh, "peer closed mid-message")
	if err == nil {
		t.Fatal("Recv returned a message from a truncated frame")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv error = %v, want ErrClosed", err)
	}
}

func TestTCPPeerClosesBetweenMessages(t *testing.T) {
	client, server, raw := tcpPair(t)
	// One complete message must still be delivered...
	if err := server.Send(Message{Tag: 7, From: "srv", Data: []byte("ok")}); err != nil {
		t.Fatal(err)
	}
	m, err := client.Recv()
	if err != nil || m.Tag != 7 || string(m.Data) != "ok" {
		t.Fatalf("Recv = %+v, %v", m, err)
	}
	// ...and a clean close afterwards surfaces as ErrClosed, not a hang.
	raw.Close()
	if err := waitErr(t, recvResult(client), "peer closed between messages"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv error = %v, want ErrClosed", err)
	}
}

func TestTCPSendAfterPeerClose(t *testing.T) {
	client, _, raw := tcpPair(t)
	raw.Close()
	// The local kernel may buffer a few writes before noticing the
	// reset; keep sending until the failure surfaces.
	deadline := time.After(5 * time.Second)
	payload := Message{Tag: 1, Data: make([]byte, 1<<16)}
	for {
		if err := client.Send(payload); err != nil {
			return // errored, not hung or panicked
		}
		select {
		case <-deadline:
			t.Fatal("Send kept succeeding 5s after peer close")
		default:
		}
	}
}

func TestTCPSendAfterLocalClose(t *testing.T) {
	client, _, _ := tcpPair(t)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(Message{Tag: 1, Data: []byte("x")}); err == nil {
		t.Fatal("Send after local Close succeeded")
	}
}

func TestTCPLocalCloseUnblocksRecv(t *testing.T) {
	client, _, _ := tcpPair(t)
	errCh := recvResult(client)
	time.Sleep(20 * time.Millisecond) // let Recv block on the socket
	client.Close()
	if err := waitErr(t, errCh, "local close"); err == nil {
		t.Fatal("Recv returned a message after local Close")
	}
}
