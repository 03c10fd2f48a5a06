package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeOracle is what the handler decoded with before the hand-rolled
// codec: encoding/json on the whole body.
func decodeOracle(r io.Reader) (InspectRequest, error) {
	var req InspectRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// sameRequest compares two decoded requests bit for bit, floats by their
// bits and the queue's nil-ness included.
func sameRequest(a, b *InspectRequest) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.Job.Wait, b.Job.Wait) || !same(a.Job.Est, b.Job.Est) || a.Job.Procs != b.Job.Procs ||
		a.Rejections != b.Rejections || a.FreeProcs != b.FreeProcs || a.TotalProcs != b.TotalProcs ||
		a.BackfillEnabled != b.BackfillEnabled || a.BackfillCount != b.BackfillCount ||
		(a.Queue == nil) != (b.Queue == nil) || len(a.Queue) != len(b.Queue) {
		return false
	}
	for i := range a.Queue {
		p, q := a.Queue[i], b.Queue[i]
		if !same(p.Wait, q.Wait) || !same(p.Est, q.Est) || p.Procs != q.Procs {
			return false
		}
	}
	return true
}

// checkDecode fails unless DecodeInspectRequest and the oracle agree on
// the bodies mk yields: the same verdict, the same error text, the same
// struct.
func checkDecode(t *testing.T, mk func() io.Reader) {
	t.Helper()
	var got InspectRequest
	gotErr := DecodeInspectRequest(mk(), &got)
	want, wantErr := decodeOracle(mk())
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("verdicts differ: got err %v, encoding/json err %v", gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("errors differ: got %q, encoding/json %q", gotErr, wantErr)
	case gotErr == nil && !sameRequest(&got, &want):
		t.Fatalf("structs differ: got %+v, encoding/json %+v", got, want)
	}
}

// queueRequest is validRequest with an n-entry queue.
func queueRequest(n int) InspectRequest {
	req := validRequest()
	req.Queue = make([]QueueItem, n)
	for i := range req.Queue {
		req.Queue[i] = QueueItem{Wait: float64(37 * i), Est: 60 + 1.5*float64(i), Procs: 1 + i%32}
	}
	return req
}

// FuzzDecodeInspectRequest holds the hand-rolled decoder to encoding/json:
// for every body both accept or both reject, accepted structs are equal
// bit for bit and error texts are equal. The seeds include the inputs the
// fast path must leave to the fallback.
func FuzzDecodeInspectRequest(f *testing.F) {
	add := func(req InspectRequest) {
		b, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(validRequest())
	for i := 0; i < 8; i++ {
		add(waveRequest(i))
	}
	for _, c := range invalidInspectCases {
		req := validRequest()
		c.mut(&req)
		add(req)
	}
	add(queueRequest(25))
	valid, err := json.Marshal(validRequest())
	if err != nil {
		f.Fatal(err)
	}
	indented, err := json.MarshalIndent(waveRequest(4), " ", "\t")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(indented)
	for _, mut := range [][2]string{
		{`"free_procs"`, `"Free_Procs"`},                    // uppercase key
		{`"free_procs"`, `"free\u005fprocs"`},               // escaped key
		{`"rejections":0`, `"rejections":0,"rejections":2`}, // duplicate key
		{`}]`, `}],"queue":[{"wait":5}]`},                   // duplicate array: encoding/json merges the entries
		{`"queue":[`, `"queue":null,"x":[`},                 // null
		{`"procs":16`, `"procs":1.5`},                       // fraction for an int
		{`"wait":120`, `"wait":1e400`},                      // overflow
		{`"wait":120`, `"wait":-0`},
		{`"procs":16`, `"procs":1e1`},
		{`"procs":16`, `"procs":99999999999999999999`},
		{`"queue":[{"wait":60,"est":600,"procs":4}]`, `"queue":[]`},
		{`"queue":[{"wait":60,"est":600,"procs":4}]`, `"queue":null`},
		{`"backfill_enabled":false`, `"backfill_enabled":true`},
		{`"backfill_enabled":false`, `"backfill_enabled":"yes"`},
		{`"est":3600`, `"est":3600,"nice":{"a":[1,2]}`}, // unknown key
	} {
		f.Add(bytes.Replace(valid, []byte(mut[0]), []byte(mut[1]), 1))
	}
	f.Add(append(append([]byte{}, valid...), `{"x":1}`...)) // trailing data
	f.Add(append(append([]byte{}, valid...), " \n\t\r"...))
	f.Add([]byte("null"))
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte("{not json"))

	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, func() io.Reader { return bytes.NewReader(body) })
	})
}

// TestDecodeInspectRequestReads covers what the fuzz target's in-memory
// bodies cannot: bodies read a byte at a time, bodies past the buffered
// bound (whose remainder is streamed to the fallback), and read errors.
func TestDecodeInspectRequestReads(t *testing.T) {
	valid, err := json.Marshal(queueRequest(25))
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte(" "), maxBufferedBody+1000)
	readErr := errors.New("connection reset")
	for _, c := range []struct {
		name string
		mk   func() io.Reader
	}{
		{"one byte reads", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(valid)) }},
		{"padded past bound", func() io.Reader {
			return io.MultiReader(bytes.NewReader(valid), bytes.NewReader(pad))
		}},
		{"padded past bound then garbage", func() io.Reader {
			return io.MultiReader(bytes.NewReader(pad), bytes.NewReader(valid), strings.NewReader("}"))
		}},
		{"huge queue", func() io.Reader {
			b, err := json.Marshal(queueRequest(40000))
			if err != nil {
				t.Fatal(err)
			}
			return bytes.NewReader(b)
		}},
		{"error after whole body", func() io.Reader {
			return io.MultiReader(bytes.NewReader(valid), iotest.ErrReader(readErr))
		}},
		{"error mid body", func() io.Reader {
			return io.MultiReader(bytes.NewReader(valid[:len(valid)/2]), iotest.ErrReader(readErr))
		}},
		{"error first", func() io.Reader { return iotest.ErrReader(readErr) }},
	} {
		t.Run(c.name, func(t *testing.T) { checkDecode(t, c.mk) })
	}
}

// TestAppendInspectResponse pins the response encoder to encoding/json's
// Encoder byte for byte, on both verdicts and probabilities that exercise
// every branch of its float64 rule.
func TestAppendInspectResponse(t *testing.T) {
	probs := []float64{0, 1, 0.5, 1e-7, 5e-324, 0.1 + 0.2, math.Copysign(0, -1),
		1e-6, 9.99e-7, 1e20, 1e21, 123456789e-15, math.MaxFloat64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		probs = append(probs, rng.Float64())
	}
	var want bytes.Buffer
	for _, p := range probs {
		for _, reject := range []bool{false, true} {
			resp := InspectResponse{Reject: reject, RejectProb: p}
			want.Reset()
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			got, ok := AppendInspectResponse(nil, resp)
			if !ok || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%+v: got %q (ok %v), encoding/json %q", resp, got, ok, want.Bytes())
			}
		}
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := AppendInspectResponse([]byte("x"), InspectResponse{RejectProb: p}); ok || string(got) != "x" {
			t.Errorf("%v: got %q ok %v, want refusal with nothing appended", p, got, ok)
		}
	}
}

// BenchmarkDecodeInspectRequest times decoding one 25-entry-queue body
// with the hand-rolled codec and with encoding/json.
func BenchmarkDecodeInspectRequest(b *testing.B) {
	body, err := json.Marshal(queueRequest(25))
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	for _, c := range []struct {
		name   string
		decode func(*InspectRequest) error
	}{
		{"codec", func(req *InspectRequest) error { return DecodeInspectRequest(rd, req) }},
		{"encoding_json", func(req *InspectRequest) error { return json.NewDecoder(rd).Decode(req) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var req InspectRequest
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if err := c.decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
