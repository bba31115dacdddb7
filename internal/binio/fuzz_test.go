package binio

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// The ops of a read program, one per Reader method.
const (
	opU8 = iota
	opBool
	opU32
	opU64
	opI64
	opF64
	opRaw
	numOps
)

// op is one read of a program; n is Raw's length.
type op struct {
	kind byte
	n    int
}

// program decodes a read program: each op is a byte modulo numOps, and
// Raw's length follows it as a signed varint, so it can be negative or
// near math.MaxInt.
func program(b []byte) []op {
	var ops []op
	for len(b) > 0 {
		o := op{kind: b[0] % numOps}
		b = b[1:]
		if o.kind == opRaw {
			n, k := binary.Varint(b)
			if k <= 0 {
				k = len(b)
			}
			o.n, b = int(n), b[k:]
		}
		ops = append(ops, o)
	}
	return ops
}

// read runs o on r. A float64 is returned as its bits, so that a NaN
// compares equal to itself.
func (o op) read(r *Reader) any {
	switch o.kind {
	case opU8:
		return r.U8()
	case opBool:
		return r.Bool()
	case opU32:
		return r.U32()
	case opU64:
		return r.U64()
	case opI64:
		return r.I64()
	case opF64:
		return math.Float64bits(r.F64())
	}
	return r.Raw(o.n)
}

// write encodes v, as o read it, on w.
func (o op) write(w *Writer, v any) {
	switch o.kind {
	case opU8:
		w.U8(v.(uint8))
	case opBool:
		w.Bool(v.(bool))
	case opU32:
		w.U32(v.(uint32))
	case opU64:
		w.U64(v.(uint64))
	case opI64:
		w.I64(v.(int64))
	case opF64:
		w.F64(math.Float64frombits(v.(uint64)))
	default:
		w.Raw(v.([]byte))
	}
}

// same reports whether two values read by one op are equal.
func same(a, b any) bool {
	if x, ok := a.([]byte); ok {
		return bytes.Equal(x, b.([]byte))
	}
	return a == b
}

// FuzzReader runs a read program drawn from the input over a buffer
// drawn from the input. Nothing may panic. After the first error the
// error sticks and every read returns its zero value. Remaining never
// grows. The values read before the error, encoded by Writer with the
// same program, are exactly the bytes they were read from, and read
// back the same. The seeds are in testdata/fuzz/FuzzReader.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog, buf []byte) {
		ops := program(prog)
		r := NewReader(buf)
		var vals []any
		consumed := len(buf) // up to the first read that failed
		for i, o := range ops {
			failed, rem := r.Err() != nil, r.Remaining()
			v := o.read(r)
			if r.Remaining() > rem || r.Remaining() < 0 {
				t.Fatalf("op %d (%d): Remaining went from %d to %d", i, o.kind, rem, r.Remaining())
			}
			if err := r.Err(); err != nil && err != ErrCorrupt {
				t.Fatalf("op %d: error %v, want ErrCorrupt", i, err)
			}
			switch {
			case failed:
				if r.Err() == nil || !reflect.ValueOf(v).IsZero() {
					t.Fatalf("op %d (%d) after an error: read %v, err %v; want the zero value and the error", i, o.kind, v, r.Err())
				}
			case r.Err() != nil:
				consumed = len(buf) - rem
			default:
				vals = append(vals, v)
			}
		}
		if r.Err() == nil {
			consumed = len(buf) - r.Remaining()
		}

		w := NewWriter(nil)
		for i, v := range vals {
			ops[i].write(w, v)
		}
		if !bytes.Equal(w.Bytes(), buf[:consumed]) {
			t.Fatalf("%d values re-encode to %x, read from %x", len(vals), w.Bytes(), buf[:consumed])
		}
		back := NewReader(w.Bytes())
		for i, want := range vals {
			if got := ops[i].read(back); !same(got, want) {
				t.Fatalf("op %d (%d) reads back %v, want %v", i, ops[i].kind, got, want)
			}
		}
		if back.Err() != nil || back.Remaining() != 0 {
			t.Fatalf("read-back: err %v, %d bytes left", back.Err(), back.Remaining())
		}
	})
}
