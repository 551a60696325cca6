package fleetd

import (
	"reflect"
	"testing"

	"nowrender/internal/msg"
)

// FuzzFleetdDecode proves every broker message decodes totally: arbitrary
// bytes — truncated frames, corrupted seals, hostile length prefixes —
// either decode into a validated message or return an error, and never
// panic, hang, or allocate unboundedly. Whatever decodes re-encodes to a
// message that decodes to the same value. The server drops a conn whose
// peer sends garbage (its leases expire); this guarantee is why garbage
// can never do worse than that.
func FuzzFleetdDecode(f *testing.F) {
	// Well-formed seeds, one per message kind, so mutation starts from
	// payloads that exercise the deep paths (unit and member lists).
	for _, m := range []msg.Layout{
		&Hello{Name: "replica-a"},
		&Welcome{Epoch: 7, TermMS: 15000},
		&AcquireReq{Req: 1, Want: 3, TermMS: 500},
		&Grant{Req: 1, Lease: 9, Slots: 2, Units: []string{"pool/0", "ws01/1"}, TermMS: 500},
		&Grant{Req: 1, Err: "no capacity"},
		&RenewReq{Req: 2, Lease: 9, TermMS: 100},
		&Renewed{Req: 2, Lease: 9, OK: true, TermMS: 100},
		&Release{Lease: 9},
		&StatsMsg{Req: 3, Capacity: 8, Free: 3, Leased: 5, Members: []Member{{Name: "pool", Slots: 8}}},
		&Req{Req: 3},
	} {
		f.Add(msg.Encode(m))
	}
	// Degenerate seeds.
	f.Add([]byte{})
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Every message type is tried on the same input: a message
		// misrouted to the wrong tag's type is still just an error.
		for _, m := range []msg.Layout{
			&Hello{}, &Welcome{}, &AcquireReq{}, &Grant{}, &RenewReq{},
			&Renewed{}, &Release{}, &StatsMsg{}, &Req{},
		} {
			if msg.Decode(data, m) != nil {
				continue
			}
			switch m := m.(type) {
			case *Hello:
				if m.Name == "" {
					t.Fatal("accepted nameless hello")
				}
			case *Welcome:
				if m.TermMS < 0 {
					t.Fatalf("accepted welcome with term %d", m.TermMS)
				}
			case *AcquireReq:
				if m.Want > maxUnits || m.TermMS < 0 {
					t.Fatalf("accepted acquire %+v", m)
				}
			case *Grant:
				if m.Slots < 0 || m.Slots > maxUnits || len(m.Units) > maxUnits {
					t.Fatalf("accepted grant %+v", m)
				}
				if m.Err == "" && m.Slots != len(m.Units) {
					t.Fatalf("accepted inconsistent grant %+v", m)
				}
			case *RenewReq:
				if m.TermMS < 0 {
					t.Fatalf("accepted renew %+v", m)
				}
			case *Renewed:
				if m.TermMS < 0 {
					t.Fatalf("accepted renewed %+v", m)
				}
			case *StatsMsg:
				if m.Capacity < 0 || m.Free < 0 || m.Leased < 0 || len(m.Members) > maxUnits {
					t.Fatalf("accepted stats %+v", m)
				}
			}
			again := reflect.New(reflect.TypeOf(m).Elem()).Interface().(msg.Layout)
			if err := msg.Decode(msg.Encode(m), again); err != nil || !reflect.DeepEqual(again, m) {
				t.Fatalf("%T: decoded %+v, re-encoded and decoded %+v, %v", m, m, again, err)
			}
		}
	})
}
