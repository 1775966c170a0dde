package sparse

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// View names one part of a strategy's live state. A client joining mid-run
// downloads the Shared view (PAPER.md §V); a restarted client restores
// Shared, then its own Local view.
type View uint8

const (
	// Shared is what every client of a fleet holds bit-identically, because
	// only post-sync global values move it: FedSU's mask and no-checking
	// information, APF's freezing, CMFL's and QSGD's reference globals.
	Shared View = iota
	// Local is what only this client's submissions produced: FedSU's
	// accumulated error, the chain residual and the Fig. 7 counters. A
	// joiner starts it empty.
	Local
)

// Stateful is implemented by a strategy, or a middleware layer, whose next
// round reads more than the model vector. State returns a pointer to the
// struct holding view v of its live state, or nil when v holds nothing.
// Every field is a fixed-size value or a slice of them; a slice holds one
// element per model parameter, or — tagged `state:"lazy"` — none until its
// owner first uses it. AppendState and DecodeState carry the struct field by
// field, so a field added to it needs no other edit.
type Stateful interface {
	State(v View) any
}

// Unwrapper is implemented by syncer middleware to expose the strategy
// underneath; the benchmark's span recorder (bench/span.go's tracedSyncer)
// is the one in the module. The state seam (AppendState, DecodeState) walks
// every layer through it.
type Unwrapper interface {
	Unwrap() Syncer
}

// UnwrapSyncer peels syncer middleware until it reaches the underlying
// strategy. Code that probes for a concrete strategy calls it first: the
// engine's predictability accounting, the Fig. 6/7 and Fig. 12 drivers and
// the benchmark's TCP workload (bench/tcp.go).
func UnwrapSyncer(s Syncer) Syncer {
	for u := unwrap(s); u != nil; u = unwrap(s) {
		s = u
	}
	return s
}

// unwrap is the layer under s, or nil when s is the strategy itself.
func unwrap(s Syncer) Syncer {
	if u, ok := s.(Unwrapper); ok {
		return u.Unwrap()
	}
	return nil
}

// states lists view v of every Stateful layer of s, walking Unwrap from the
// outermost middleware down to the strategy.
func states(s Syncer, v View) []reflect.Value {
	var out []reflect.Value
	for ; s != nil; s = unwrap(s) {
		if st, ok := s.(Stateful); ok && st.State(v) != nil {
			out = append(out, reflect.ValueOf(st.State(v)).Elem())
		}
	}
	return out
}

// AppendState appends view v of every Stateful layer of s to b: each struct
// field by field in declaration order, nested structs inline, in
// encoding/binary's little-endian form, a slice as its uint64 length and its
// elements. One value has one encoding.
func AppendState(b []byte, s Syncer, v View) []byte {
	w := bytes.NewBuffer(b)
	put := func(x any) {
		if err := binary.Write(w, binary.LittleEndian, x); err != nil {
			panic(err) // a field encoding/binary cannot write: a programming error
		}
	}
	for _, st := range states(s, v) {
		eachField(st, func(f reflect.Value, _ reflect.StructField) error {
			if f.Kind() == reflect.Slice {
				put(uint64(f.Len()))
			}
			put(f.Interface())
			return nil
		})
	}
	return w.Bytes()
}

// DecodeState decodes view v of every Stateful layer of s from b, as
// AppendState wrote it for a syncer of the same composition over n
// parameters, and returns the function that installs it: nothing changes
// before that runs, so a caller restoring many syncers can check every blob
// first. Every length is checked against the bytes left before anything is
// allocated, and against n (a lazy slice may be empty); a bool byte must be
// 0 or 1; b must be used up exactly.
func DecodeState(s Syncer, b []byte, v View, n int) (install func(), err error) {
	le := binary.LittleEndian
	var sets []func()
	for _, dst := range states(s, v) {
		tmp := reflect.New(dst.Type()).Elem()
		err := eachField(tmp, func(f reflect.Value, sf reflect.StructField) error {
			x, t, count := f.Addr().Interface(), f.Type(), 1
			if f.Kind() == reflect.Slice {
				if len(b) < 8 {
					return errShortState
				}
				m := le.Uint64(b)
				b, t = b[8:], t.Elem()
				switch {
				case m > uint64(len(b))/uint64(t.Size()):
					return errShortState
				case m != uint64(n) && !(m == 0 && sf.Tag.Get("state") == "lazy"):
					return fmt.Errorf("%s: length %d, want %d", sf.Name, m, n)
				case m == 0:
					return nil
				}
				f.Set(reflect.MakeSlice(f.Type(), int(m), int(m)))
				x, count = f.Interface(), int(m)
			}
			size := count * int(t.Size())
			if len(b) < size {
				return errShortState
			}
			if t.Kind() == reflect.Bool && len(bytes.Trim(b[:size], "\x00\x01")) > 0 {
				return fmt.Errorf("%s: bool byte above 1", sf.Name)
			}
			if err := binary.Read(bytes.NewReader(b[:size]), le, x); err != nil {
				return fmt.Errorf("%s: %w", sf.Name, err)
			}
			b = b[size:]
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%v: %w", dst.Type(), err)
		}
		sets = append(sets, func() { dst.Set(tmp) })
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("sparse: %d bytes of state past the last layer", len(b))
	}
	return func() {
		for _, set := range sets {
			set()
		}
	}, nil
}

var errShortState = errors.New("state truncated")

// held is embedded by a strategy whose live state is one struct, st, all in
// one view; it implements Stateful for it.
type held[T any] struct {
	st   T
	view View
}

// State implements Stateful.
func (h *held[T]) State(v View) any {
	if v != h.view {
		return nil
	}
	return &h.st
}

// MakeFields allocates every slice field of the struct p points to, nested
// structs included, at length n, except those tagged `state:"lazy"`.
func MakeFields(p any, n int) {
	eachField(reflect.ValueOf(p).Elem(), func(f reflect.Value, sf reflect.StructField) error {
		if f.Kind() == reflect.Slice && sf.Tag.Get("state") != "lazy" {
			f.Set(reflect.MakeSlice(f.Type(), n, n))
		}
		return nil
	})
}

// eachField calls fn on every field of the struct v in declaration order,
// walking into nested structs.
func eachField(v reflect.Value, fn func(reflect.Value, reflect.StructField) error) error {
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		var err error
		if f.Kind() == reflect.Struct {
			err = eachField(f, fn)
		} else {
			err = fn(f, sf)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
