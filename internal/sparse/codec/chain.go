package codec

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Chain composes stages into one wire encoding. A chain is parsed from a
// spec string ("topk,q4,rans"), validated for composability at parse
// time (every dynamic path — a low-rank stage may skip — must hand each
// stage an input form it accepts), and is safe for concurrent use: the
// stages are stateless between messages and the per-stage byte counters
// are atomic, so one chain instance serves a whole engine or
// coordinator.
//
// Encoding is a pure function of (chain spec, seed, vector): no RNG
// streams, no wall clock — the determinism contract the TCP-vs-in-
// process and worker-count bit-identity tests pin.
type Chain struct {
	spec   string
	seed   int64
	stages []Stage
	// counters has one slot per stage plus a trailing slot for the
	// implicit base serialization inserted before an entropy stage when
	// the vector is still numeric.
	counters []stageCounter
	encodes  atomic.Int64 // see Encodes
	// reply is the downlink variant of this chain (quantizers widened to
	// 8 bits — see Reply); it is the chain itself when no stage widens.
	reply *Chain
}

type stageCounter struct {
	msgs, in, out atomic.Int64
}

func (c *stageCounter) count(in, out int) {
	c.msgs.Add(1)
	c.in.Add(int64(in))
	c.out.Add(int64(out))
}

// StageBytes is one stage's cumulative byte accounting: messages
// encoded, bytes consumed (8·len for numeric input, encoded length
// otherwise) and bytes produced.
type StageBytes struct {
	Stage    string
	Msgs     int64
	InBytes  int64
	OutBytes int64
}

// Parse builds a chain from a comma-separated spec. Stage tokens:
//
//	topk | sparse   bitmap/index sparsifying base stage (PR 4 codec)
//	q2..q8          k-bit stochastic quantization
//	lowrank[N]      rank-N factor stage (default rank 8)
//	rans | entropy  adaptive range coder
//
// seed fixes the quantizer's rounding hash and the factor stage's
// subspace init; both ends of a wire decode regardless of seed.
func Parse(spec string, seed int64) (*Chain, error) {
	parts := strings.Split(spec, ",")
	stages := make([]Stage, 0, len(parts))
	tokens := make([]string, 0, len(parts))
	for _, p := range parts {
		tok := strings.ToLower(strings.TrimSpace(p))
		stageSeed := Mix64(uint64(seed) + uint64(len(stages)) + 1)
		var st Stage
		var err error
		switch {
		case tok == "topk" || tok == "sparse":
			tok = "topk"
			st = Base()
		case tok == "rans" || tok == "entropy":
			tok = "rans"
			st = Entropy()
		case len(tok) == 2 && tok[0] == 'q' && tok[1] >= '0' && tok[1] <= '9':
			st, err = NewQuant(int(tok[1]-'0'), stageSeed)
		case strings.HasPrefix(tok, "lowrank"):
			rank := 8
			if rest := tok[len("lowrank"):]; rest != "" {
				rank, err = strconv.Atoi(rest)
				if err != nil {
					return nil, fmt.Errorf("codec: bad lowrank rank in %q", tok)
				}
			}
			st, err = NewLowRank(tok, rank, stageSeed)
		default:
			return nil, fmt.Errorf("codec: unknown chain stage %q (want topk, q2..q8, lowrank[N], rans)", tok)
		}
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
		tokens = append(tokens, tok)
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("codec: empty chain spec")
	}
	if len(stages) > maxDecodeDepth {
		return nil, fmt.Errorf("codec: chain %q has %d stages, max %d", spec, len(stages), maxDecodeDepth)
	}
	if err := validate(tokens, stages); err != nil {
		return nil, err
	}
	ch := &Chain{
		spec:     strings.Join(tokens, ","),
		seed:     seed,
		stages:   stages,
		counters: make([]stageCounter, len(stages)+1),
	}
	// Derive the downlink variant: every quantizer narrower than 8 bits
	// widens to q8 (same seed, so identical stage seeding at each
	// position). The widened spec's own reply is itself, so the recursion
	// terminates after one level.
	replyTokens := append([]string(nil), tokens...)
	widened := false
	for i, tok := range replyTokens {
		if len(tok) == 2 && tok[0] == 'q' && tok[1] != '8' {
			replyTokens[i] = "q8"
			widened = true
		}
	}
	if !widened {
		ch.reply = ch
	} else {
		rc, err := Parse(strings.Join(replyTokens, ","), seed)
		if err != nil {
			return nil, err
		}
		ch.reply = rc
	}
	return ch, nil
}

// Default is the degenerate one-stage chain: the PR 4 bitmap/index
// codec alone, byte-identical to the historical wire image.
func Default() *Chain {
	base, _ := Parse("topk", 0)
	return base
}

// Input-form flags for parse-time composability simulation: the set of
// forms a vector may be in when it reaches a stage, over every dynamic
// path (a low-rank stage forks skip/apply).
const (
	formNumeric = 1 << iota
	formBase
	formQuant
	formLowRank
	formEntropy
)

func validate(tokens []string, stages []Stage) error {
	states := formNumeric
	for i, st := range stages {
		next := 0
		switch st.(type) {
		case baseStage:
			if states != formNumeric {
				return fmt.Errorf("codec: stage %q must head its chain", tokens[i])
			}
			next = formBase
		case *quantStage:
			if states&^(formNumeric|formBase) != 0 {
				return fmt.Errorf("codec: stage %q needs numeric or topk input", tokens[i])
			}
			next = formQuant
		case *lowRankStage:
			if states != formNumeric {
				return fmt.Errorf("codec: stage %q must precede serializing stages", tokens[i])
			}
			next = formNumeric | formLowRank // skip path keeps numeric
		case entropyStage:
			next = formEntropy // numeric input auto-serializes via the base stage
		default:
			return fmt.Errorf("codec: unknown stage type at %q", tokens[i])
		}
		states = next
	}
	return nil
}

// Reply is the chain the downlink (collective replies) ships: the same
// stages with every quantizer widened to 8 bits. The mean of K k-bit
// uploads lands between the k-bit grid points, so re-snapping it at k
// bits would put a fresh variance floor under every round of training;
// widening the reply grid to the byte boundary makes the downlink loss
// negligible for ~2× the quantized payload. Chains with no narrow
// quantizer (including the default) reply with themselves. The reply
// chain carries its own per-stage counters.
func (c *Chain) Reply() *Chain { return c.reply }

// IsDefault reports whether the chain is the degenerate one-stage base
// chain, whose wire image is the historical PR 4 encoding.
func (c *Chain) IsDefault() bool {
	if len(c.stages) != 1 {
		return false
	}
	_, ok := c.stages[0].(baseStage)
	return ok
}

// AppendEncode appends the chain encoding of values to dst and returns
// the extended slice, charging the per-stage counters. The encoding is
// self-describing: DecodeInto reverses it with no chain in hand.
// Internal stage failures panic (they indicate a composability bug the
// parser should have rejected, not a data condition).
func (c *Chain) AppendEncode(dst []byte, values []float64) []byte {
	dst, _ = c.appendEncode(dst, values, nil, true)
	return dst
}

// AppendEncodeImage is AppendEncode that also decodes the wire image —
// bitwise what DecodeInto makes of the appended bytes — into image (reused
// when its capacity covers values; nil asks for none) and returns it: the
// sender's error-feedback reference, from the one encode. Entropy coding
// is lossless, so the image is read off the payload that enters the first
// entropy stage, before any range coding.
func (c *Chain) AppendEncodeImage(dst []byte, values, image []float64) ([]byte, []float64) {
	return c.appendEncode(dst, values, image, true)
}

func (c *Chain) appendEncode(dst []byte, values, image []float64, counted bool) ([]byte, []float64) {
	c.encodes.Add(1)
	// Both intermediates come from the pool class the larger one ends in —
	// the base serialization unless the quantizer reads the values itself.
	size := DenseBaseSize(len(values))
	if _, ok := c.stages[0].(*quantStage); ok {
		size = c.DensePayloadSize(len(values))
	}
	bufA := GetBuf(size)
	defer PutBuf(bufA)
	bufB := GetBuf(size)
	defer PutBuf(bufB)
	cur, nxt := bufA, bufB

	imaged := image == nil
	v := Vector{Values: values}
	serialize := func() { // the implicit base stage, charged to the trailing counter
		*cur = AppendBase((*cur)[:0], v.Values)
		if counted {
			c.counters[len(c.stages)].count(8*len(v.Values), len(*cur))
		}
		v = Vector{Bytes: *cur}
	}
	for i, st := range c.stages {
		if _, entropy := st.(entropyStage); entropy {
			if v.Bytes == nil {
				serialize()
			}
			if !imaged {
				image, imaged = c.decodeOwn(image, v.Bytes, len(values)), true
			}
		}
		in := 8 * len(v.Values)
		if v.Bytes != nil {
			in = len(v.Bytes)
		}
		out, err := st.Encode((*nxt)[:0], v)
		if err == errSkip {
			continue
		}
		if err != nil {
			panic(fmt.Sprintf("codec: chain %q stage %s: %v", c.spec, st.Name(), err))
		}
		*nxt = out
		if counted {
			c.counters[i].count(in, len(out))
		}
		v = Vector{Bytes: *nxt}
		cur, nxt = nxt, cur
	}
	if v.Bytes == nil { // every stage skipped: fall through to the base codec
		serialize()
	}
	if !imaged {
		image = c.decodeOwn(image, v.Bytes, len(values))
	}
	return append(dst, v.Bytes...), image
}

// decodeOwn decodes a payload this chain has just produced; a failure is a
// codec bug, not a data condition.
func (c *Chain) decodeOwn(dst []float64, payload []byte, n int) []float64 {
	out, err := DecodeInto(dst, payload, n)
	if err != nil {
		panic(fmt.Sprintf("codec: chain %q round trip: %v", c.spec, err))
	}
	return out
}

// PayloadSize is the exact encoded size of values under the chain, in
// bytes. Stages downstream of the first serializer make the size
// data-dependent, so in general this encodes into pooled scratch (the
// per-stage counters are not charged); the degenerate base chain
// computes it analytically.
func (c *Chain) PayloadSize(values []float64) int {
	if c.IsDefault() {
		return BaseSize(values)
	}
	buf := GetBuf(c.DensePayloadSize(len(values)))
	defer PutBuf(buf)
	*buf, _ = c.appendEncode((*buf)[:0], values, nil, false)
	return len(*buf)
}

// DensePayloadSize is the chain's reference cost for a fully-dense
// vector of n parameters — the denominator SparsificationRatio and
// first-round load estimates use. It is computed from the chain's
// serializing stage (the quantizer when present, the base codec
// otherwise); the entropy and low-rank stages are excluded because
// their dense cost is data-dependent, keeping the reference a stable
// pure function of (chain, n).
func (c *Chain) DensePayloadSize(n int) int {
	for _, st := range c.stages {
		if q, ok := st.(*quantStage); ok {
			blocks := (n + quantBlock - 1) / quantBlock
			return 1 + quantHeaderBytes + quantRangeBytes*blocks + (n*q.bits+7)/8 // mode 0x03: no index part
		}
	}
	return DenseBaseSize(n)
}

// RoundTripSized returns the wire image of values — the vector a receiver
// observes after one encode→decode trip through the chain, the chain
// generalization of sparse.QuantizeWire — and the encoded payload's length,
// what the message cost, from the one encode. The image lands in dst when
// its capacity suffices. nil values (an abstention carries no payload):
// (nil, 0). The per-stage counters are charged: an in-process round trip
// stands in for a real wire message.
func (c *Chain) RoundTripSized(dst, values []float64) ([]float64, int) {
	return c.roundTrip(dst, values, true)
}

// WireImage is the wire image RoundTripSized computes, in a fresh slice and
// without charging the per-stage counters: a strategy-side probe of what
// the receiver will observe (the error-feedback residual computation), not
// a wire message.
func (c *Chain) WireImage(values []float64) []float64 {
	out, _ := c.roundTrip(nil, values, false)
	return out
}

func (c *Chain) roundTrip(dst, values []float64, counted bool) ([]float64, int) {
	if values == nil {
		return nil, 0
	}
	buf := GetBuf(c.DensePayloadSize(len(values)))
	defer PutBuf(buf)
	if dst == nil || cap(dst) < len(values) {
		dst = make([]float64, len(values))
	}
	*buf, dst = c.appendEncode((*buf)[:0], values, dst, counted)
	return dst, len(*buf)
}

// DecodeInto decodes any chain payload (the chain itself is not needed:
// the encoding is self-describing — this is a convenience mirror of the
// package-level DecodeInto).
func (c *Chain) DecodeInto(dst []float64, b []byte, maxParams int) ([]float64, error) {
	return DecodeInto(dst, b, maxParams)
}

// Encodes is how many vectors the chain has encoded so far, wire messages
// and uncounted probes (PayloadSize, WireImage) alike.
func (c *Chain) Encodes() int64 { return c.encodes.Load() }

// Counters snapshots the per-stage byte accounting. The trailing
// implicit base serialization (inserted when an entropy stage receives a
// numeric vector) reports as "topk"; stages that never ran are elided.
func (c *Chain) Counters() []StageBytes {
	out := make([]StageBytes, 0, len(c.counters))
	for i := range c.counters {
		ctr := &c.counters[i]
		msgs := ctr.msgs.Load()
		if msgs == 0 {
			continue
		}
		name := "topk"
		if i < len(c.stages) {
			name = c.stages[i].Name()
		}
		out = append(out, StageBytes{
			Stage:    name,
			Msgs:     msgs,
			InBytes:  ctr.in.Load(),
			OutBytes: ctr.out.Load(),
		})
	}
	return out
}
