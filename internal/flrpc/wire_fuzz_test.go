package flrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"

	"fedsu/internal/sparse"
)

// memConn is a net.Conn over a byte buffer: what is written can be read
// back, which is all the frame codec needs.
type memConn struct {
	net.Conn
	buf bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error)  { return m.buf.Read(p) }
func (m *memConn) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memConn) Close() error                { return nil }

// frameBytes is f as writeFrame puts it on the wire.
func frameBytes(t testing.TB, f frame) []byte {
	t.Helper()
	m := &memConn{}
	if err := newConn(m).writeFrame(context.Background(), &f); err != nil {
		t.Fatal(err)
	}
	return m.buf.Bytes()
}

// FuzzAggWire fuzzes the collective wire end to end through a real frame:
// header flags plus a sparse vector-codec payload. Two invariants are
// checked for every value pattern (NaNs, signed zeros, subnormals included),
// in the request and in the reply direction:
//
//  1. nil, empty and non-empty stay three different things — abstention and
//     "no contributors" are header flags, so a zero-length contribution
//     comes back empty but non-nil and a flagged frame comes back nil
//     whatever its payload;
//  2. every value survives as its QuantizeWire image — zeros elide to +0,
//     everything else rounds through float32, bit-for-bit reproducibly.
//
// Header fields (client id, round, kind) come back as sent; an id or round
// that does not fit the header's 32 bits is refused at the writer.
func FuzzAggWire(f *testing.F) {
	f.Add(0, 3, "model", []byte{}, true)  // abstention
	f.Add(1, 0, "error", []byte{}, false) // empty-but-contributing: the original bug
	f.Add(2, 7, "model", floatBytes(1.5, -0.25, 0), false)
	f.Add(3, 9, "error", floatBytes(math.NaN(), math.Inf(-1), math.Copysign(0, -1)), false)
	f.Add(-1, 1<<40, "bogus", []byte{}, true) // round overflows the header
	f.Fuzz(func(t *testing.T, clientID, round int, kind string, raw []byte, abstain bool) {
		var values []float64
		if !abstain {
			values = bytesToFloats(raw)
		}
		for _, reply := range []bool{false, true} {
			sent := frame{typ: typeAggregate, kind: kindByte(kind), id: clientID, round: round}
			none := flagAbstain
			if reply {
				sent.flags, none = flagReply, flagNil
			}
			if values == nil {
				sent.flags |= none
			} else {
				sent.payload = sparse.EncodeVectorPayload(values)
			}
			m := &memConn{}
			cn := newConn(m)
			cn.limit.Store(int64(frameLimit(len(values))))
			err := cn.writeFrame(context.Background(), &sent)
			if int(int32(clientID)) != clientID || int(int32(round)) != round {
				if !errors.Is(err, ErrMalformed) || m.buf.Len() != 0 {
					t.Fatalf("out-of-range header field: err = %v, %d bytes written", err, m.buf.Len())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := cn.readFrame()
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			if got.id != clientID || got.round != round || got.typ != sent.typ || got.flags != sent.flags || got.status != statusOK {
				t.Fatalf("header %+v came back as %+v", sent, got)
			}
			if want := map[string]string{"model": "model", "error": "error"}[kind]; kindNames[got.kind] != want {
				t.Fatalf("kind %q came back as %q", kind, kindNames[got.kind])
			}
			var vec []float64
			if reply {
				vec, err = AggReply{Payload: got.payload, Nil: got.flags&flagNil != 0}.contribution(nil, len(values))
			} else {
				vec, err = AggArgs{Payload: got.payload, Abstain: got.flags&flagAbstain != 0}.contribution(nil, len(values))
			}
			got.release()
			if err != nil {
				t.Fatalf("decode (reply=%v): %v", reply, err)
			}
			checkContribution(t, map[bool]string{false: "request", true: "reply"}[reply], values, vec)
		}
	})
}

// FuzzFrame feeds arbitrary bytes to the frame reader and to both decoders
// behind it — the coordinator's view of a request, the client's view of a
// reply. Nothing may panic; a frame is never larger than the session's
// limit; what parses re-encodes to the bytes it was parsed from; a decoded
// vector never exceeds the session's model size (sizes start at one: zero
// selects the decoders' 16M-parameter default cap); and a non-zero status
// is always an error, an unknown one a malformed message.
func FuzzFrame(f *testing.F) {
	vec := sparse.EncodeVectorPayload([]float64{1.5, 0, -2})
	f.Add(frameBytes(f, frame{seq: 1, typ: typeAggregate, kind: kindModel, id: 2, round: 3, payload: vec}), uint16(3))
	f.Add(frameBytes(f, frame{seq: 2, typ: typeAggregate, flags: flagAbstain, kind: kindError, round: 1}), uint16(3))
	f.Add(frameBytes(f, frame{seq: 3, typ: typeAggregate, flags: flagReply | flagNil, kind: kindModel}), uint16(0))
	f.Add(frameBytes(f, frame{seq: 4, typ: typeAggregate, flags: flagReply, status: statusEvicted, payload: []byte("evicted")}), uint16(8))
	f.Add(frameBytes(f, frame{seq: 5, typ: 200, flags: 0xff, status: 200, kind: 9, id: -1, round: -1, payload: []byte{0xff}}), uint16(1))
	f.Add(frameBytes(f, frame{seq: 6, typ: typePartial, kind: kindModel, payload: sparse.AppendPartialPayload(nil, sparse.Partial{Weight: 2, Sum: []float64{1, 2}})}), uint16(2))
	giant := frameBytes(f, frame{seq: 7, typ: typeAggregate, kind: kindModel})
	binary.LittleEndian.PutUint32(giant, 1<<30)
	f.Add(giant, uint16(4))
	f.Add(frameBytes(f, frame{seq: 8, typ: typeAggregate, kind: kindModel, payload: vec})[:headerSize+3], uint16(3)) // truncated
	f.Fuzz(func(t *testing.T, data []byte, modelSize uint16) {
		n := int(modelSize) + 1
		m := &memConn{}
		m.buf.Write(data)
		cn := newConn(m)
		cn.limit.Store(int64(frameLimit(n)))
		fr, err := cn.readFrame()
		if err != nil {
			if fr.buf != nil {
				t.Fatal("a refused frame holds a buffer")
			}
			return
		}
		defer fr.release()
		if len(fr.payload) > frameLimit(n) {
			t.Fatalf("%d-byte payload under a limit of %d", len(fr.payload), frameLimit(n))
		}
		if again := frameBytes(t, fr); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("frame %x re-encodes to %x", data[:len(again)], again)
		}

		// The coordinator's decoders.
		vals, err := AggArgs{Payload: fr.payload, Abstain: fr.flags&flagAbstain != 0}.contribution(nil, n)
		if err == nil && (fr.flags&flagAbstain != 0) != (vals == nil) {
			t.Fatalf("abstain flag %v decoded to %v", fr.flags&flagAbstain != 0, vals)
		}
		if len(vals) > n {
			t.Fatalf("request decoded to %d values in a session of %d", len(vals), n)
		}
		if p, err := sparse.DecodePartialPayloadInto(nil, fr.payload, n); err == nil && len(p.Sum) > n {
			t.Fatalf("partial decoded to %d values in a session of %d", len(p.Sum), n)
		}

		// The client's.
		rep := fr
		rep.buf = nil // fr releases it
		switch err := rep.err(); {
		case (fr.status == statusOK) != (err == nil):
			t.Fatalf("status %d gave error %v", fr.status, err)
		case fr.status >= numStatus && !errors.Is(err, ErrMalformed):
			t.Fatalf("unknown status %d is not a malformed message: %v", fr.status, err)
		case err == nil:
			vals, err := AggReply{Payload: fr.payload, Nil: fr.flags&flagNil != 0}.contribution(nil, n)
			if err == nil && (fr.flags&flagNil != 0) != (vals == nil) {
				t.Fatalf("nil flag %v decoded to %v", fr.flags&flagNil != 0, vals)
			}
			if len(vals) > n {
				t.Fatalf("reply decoded to %d values in a session of %d", len(vals), n)
			}
		}
	})
}

// checkContribution asserts the decoded wire payload is semantically
// identical to what was sent: nil stays nil, empty stays empty (non-nil),
// and every value arrives as its QuantizeWire image, bit-for-bit.
func checkContribution(t *testing.T, dir string, sent, got []float64) {
	t.Helper()
	if sent == nil {
		if got != nil {
			t.Fatalf("%s: sent nil (abstain/no-contributors), received %v", dir, got)
		}
		return
	}
	if got == nil {
		t.Fatalf("%s: empty contribution collapsed to nil across the wire", dir)
	}
	if len(got) != len(sent) {
		t.Fatalf("%s: sent %d values, received %d", dir, len(sent), len(got))
	}
	for i := range sent {
		want := sparse.QuantizeWire(sent[i])
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("%s: value %d: sent %x, want %x on arrival, received %x",
				dir, i, math.Float64bits(sent[i]), math.Float64bits(want), math.Float64bits(got[i]))
		}
	}
}

// bytesToFloats reinterprets raw fuzz bytes as float64s (always non-nil:
// the fuzzer's empty input is the empty contribution, the regression
// case).
func bytesToFloats(raw []byte) []float64 {
	values := make([]float64, 0, len(raw)/8)
	for len(raw) >= 8 {
		values = append(values, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		raw = raw[8:]
	}
	return values
}

// floatBytes builds a seed payload from explicit float64s.
func floatBytes(vs ...float64) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}
