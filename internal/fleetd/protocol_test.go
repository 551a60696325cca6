package fleetd

import (
	"reflect"
	"strings"
	"testing"

	"nowrender/internal/msg"
)

// TestProtocolRoundTrips: every broker message survives encode/decode
// unchanged.
func TestProtocolRoundTrips(t *testing.T) {
	for _, m := range []msg.Layout{
		&Hello{Name: "replica-a"},
		&Welcome{Epoch: 77, TermMS: 15000},
		&AcquireReq{Req: 9, Want: 3, TermMS: 500},
		&Grant{Req: 9, Lease: 42, Slots: 2, Units: []string{"pool/0", "ws01/1"}, TermMS: 500},
		&Grant{Req: 9, Err: "no capacity"},
		&RenewReq{Req: 1, Lease: 42, TermMS: 100},
		&Renewed{Req: 1, Lease: 42, OK: true, TermMS: 100},
		&Release{Lease: 42},
		&StatsMsg{
			Req: 5, Capacity: 8, Free: 3, Leased: 5, Grants: 10, Renews: 20,
			Expiries: 1, Releases: 9, Waits: 2,
			Members: []Member{{Name: "pool", Slots: 4}, {Name: "ws01", Slots: 4}},
		},
		&Req{Req: 5},
	} {
		got := reflect.New(reflect.TypeOf(m).Elem()).Interface().(msg.Layout)
		if err := msg.Decode(msg.Encode(m), got); err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("%T round trip = %+v, %v; want %+v", m, got, err, m)
		}
	}
}

// TestProtocolRejectsSemanticGarbage: structurally valid payloads with
// hostile values are refused with errors, not accepted or panicked on.
func TestProtocolRejectsSemanticGarbage(t *testing.T) {
	for name, m := range map[string]msg.Layout{
		"nameless hello":         &Hello{},
		"oversized acquire":      &AcquireReq{Want: maxUnits + 1},
		"negative acquire term":  &AcquireReq{TermMS: -5},
		"negative welcome term":  &Welcome{TermMS: -1},
		"negative renewed term":  &Renewed{TermMS: -1},
		"renew past MaxTerm":     &RenewReq{TermMS: maxTermMS + 1},
		"negative stats counter": &StatsMsg{Capacity: -1},
		// A grant whose slot count disagrees with its unit list is the
		// accounting lie the decoder must catch.
		"grant slots/units mismatch": &Grant{Slots: 3, Units: []string{"pool/0"}},
	} {
		if err := msg.Decode(msg.Encode(m), m); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestProtocolRejectsTruncation: every message fails cleanly on
// truncated and empty payloads.
func TestProtocolRejectsTruncation(t *testing.T) {
	whole := msg.Encode(&Grant{Req: 1, Lease: 2, Slots: 1, Units: []string{"pool/0"}, TermMS: 10})
	for _, data := range [][]byte{nil, {}, whole[:3], whole[:len(whole)-1]} {
		for _, m := range []msg.Layout{
			&Hello{}, &Welcome{}, &AcquireReq{}, &Grant{}, &RenewReq{},
			&Renewed{}, &Release{}, &StatsMsg{}, &Req{},
		} {
			if err := msg.Decode(data, m); err == nil {
				t.Errorf("truncated %T accepted", m)
			}
		}
	}
}

// TestProtocolErrorsAreWrapped: decode failures identify the message
// kind, so a dropped-conn log line says what was malformed.
func TestProtocolErrorsAreWrapped(t *testing.T) {
	err := msg.Decode([]byte{1, 2, 3}, &Grant{})
	if err == nil || !strings.Contains(err.Error(), "grant") {
		t.Fatalf("grant decode error = %v", err)
	}
	err = msg.Decode([]byte{1, 2, 3}, &Hello{})
	if err == nil || !strings.Contains(err.Error(), "hello") {
		t.Fatalf("hello decode error = %v", err)
	}
}
