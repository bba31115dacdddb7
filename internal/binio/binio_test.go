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

// TestCheckRanks: every set of ways bytes (the last one possibly
// shorter) must hold the ranks 1..k of its k nonzero bytes exactly
// once, and sets of more than MaxRankWays ways are refused.
func TestCheckRanks(t *testing.T) {
	widest := make([]byte, MaxRankWays)
	for i := range widest {
		widest[i] = byte(MaxRankWays - i)
	}
	for _, tc := range []struct {
		name  string
		ranks []byte
		ways  int
		ok    bool
	}{
		{"full sets", []byte{2, 1, 4, 3, 1, 2, 3, 4}, 4, true},
		{"partial and empty sets", []byte{0, 0, 1, 2, 0, 0, 0, 0}, 4, true},
		{"short last set", []byte{1, 2, 0, 1}, 3, true},
		{"no sets", nil, 4, true},
		{"widest set", widest, MaxRankWays, true},
		{"duplicate", []byte{1, 1, 3, 4}, 4, false},
		{"gap", []byte{0, 1, 3, 0}, 4, false},
		{"above the ways", []byte{1, 2, 3, 5}, 4, false},
		{"duplicate in the short last set", []byte{2, 1, 0, 1, 1}, 3, false},
		{"wider than a byte holds", []byte{1}, MaxRankWays + 1, false},
		{"no ways", []byte{1}, 0, false},
	} {
		if err := CheckRanks(tc.ranks, tc.ways); (err == nil) != tc.ok {
			t.Errorf("%s: CheckRanks(%v, %d) = %v, want ok %v", tc.name, tc.ranks, tc.ways, err, tc.ok)
		}
	}
}
