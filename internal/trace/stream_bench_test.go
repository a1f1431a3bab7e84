package trace

import (
	"bytes"
	"io"
	"testing"
)

// benchTrace builds a representative event mix: transactions with
// repeated labels, lock ops, and read/write traffic across a few
// variables and threads.
func benchTrace(n int) Trace {
	var tr Trace
	for i := 0; len(tr) < n; i++ {
		t := Tid(1 + i%4)
		tr = append(tr,
			Beg(t, Label("Worker.run")),
			Acq(t, Lock(int32(i%2))),
			Rd(t, Var(int32(i%8))),
			Wr(t, Var(int32(i%8))),
			Rel(t, Lock(int32(i%2))),
			Fin(t),
		)
	}
	return tr[:n]
}

func textBytes(tr Trace) []byte {
	var buf bytes.Buffer
	if err := Marshal(&buf, tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func streamBytes(tr Trace, trailer string) []byte {
	var buf bytes.Buffer
	if err := MarshalStream(&buf, tr, trailer); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func benchDecode(b *testing.B, data []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	var ops int
	for b.Loop() {
		ops = 0
		d := NewDecoder(bytes.NewReader(data))
		for {
			_, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			ops++
		}
	}
	b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

func BenchmarkDecoderText(b *testing.B) {
	benchDecode(b, textBytes(benchTrace(10000)))
}

func BenchmarkDecoderBinary(b *testing.B) {
	benchDecode(b, streamBytes(benchTrace(10000), ""))
}

func BenchmarkParseOp(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ParseOp("rd(3,x17)"); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecoderSteadyStateAllocs pins the tentpole property: once the
// decoder has seen each distinct Begin label once, decoding text
// allocates nothing per operation.
func TestDecoderSteadyStateAllocs(t *testing.T) { eachBufSize(t, testDecoderSteadyStateAllocs) }

func testDecoderSteadyStateAllocs(t *testing.T) {
	data := textBytes(benchTrace(64))
	d := testDecoder(bytes.NewReader(bytes.Repeat(data, 200)))
	// Warm-up: intern the labels and size the internal buffers.
	for i := 0; i < 128; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state Decoder.Next allocates %.2f objects/op, want 0", avg)
	}
}
