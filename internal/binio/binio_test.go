package binio

import "testing"

// TestBoolRejectsNonBoolBytes: Writer writes only 0 and 1, so any other
// byte is corrupt, and the error sticks like a short read's.
func TestBoolRejectsNonBoolBytes(t *testing.T) {
	r := NewReader([]byte{0, 1, 0x30, 1})
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("0, 1 decoded wrong (err %v)", r.Err())
	}
	if r.Bool() || r.Err() != ErrCorrupt {
		t.Fatalf("byte 0x30 decoded without ErrCorrupt (err %v)", r.Err())
	}
	if r.Bool() || r.Err() != ErrCorrupt {
		t.Error("error did not stick")
	}
}
