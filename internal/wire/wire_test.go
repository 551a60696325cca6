package wire

import (
	"testing"

	"nowrender/internal/fb"
)

// TestDecodeRejectsRetiredEncoding: encoding id 1 was flate, retired
// with protocol version 2. A decoder must reject it — and any other id
// it does not know — rather than guess at the payload.
func TestDecodeRejectsRetiredEncoding(t *testing.T) {
	region := fb.NewRect(0, 0, 8, 8)
	for _, enc := range []int{1, 3, -1} {
		m := FrameDone{
			TaskID: 1, Frame: 0, Region: region, Encoding: enc,
			Pix: make([]byte, region.Area()*3),
		}
		if _, err := DecodeFrameDone(EncodeFrameDone(m)); err == nil {
			t.Errorf("encoding id %d decoded successfully", enc)
		}
	}
}
