package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"

	"mocha/internal/sequoia"
	"mocha/internal/types"
	"mocha/internal/wire"
)

// batchRows is how many small rows one encoded batch carries in the
// codec drivers.
const batchRows = 1000

// encodeEach returns the wire encoding of every row.
func encodeEach(rows []types.Tuple) [][]byte {
	out := make([][]byte, len(rows))
	for i, t := range rows {
		out[i] = t.AppendTo(nil)
	}
	return out
}

// driveTupleCodec times Tuple.AppendTo and DecodeTuple on the small
// Graphs rows (~150 B) and on the Rasters rows (one ~52 KB image each).
func driveTupleCodec(c *driverCtx) (map[string]float64, error) {
	graphs, err := c.table(0, "Graphs")
	if err != nil {
		return nil, err
	}
	rasters, err := c.table(0, "Rasters")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)

	var buf []byte
	n, el, _ := c.loop(func() error {
		for _, t := range graphs {
			buf = t.AppendTo(buf[:0])
		}
		return nil
	})
	out["types.tuple_encode_small_mb_s"] = mbPerS(wireBytes(graphs), n, el)

	decode := func(schema types.Schema, rows []types.Tuple) (float64, error) {
		enc := encodeEach(rows)
		n, el, err := c.loop(func() error {
			for i, data := range enc {
				t, used, err := types.DecodeTuple(schema, data)
				if err != nil {
					return err
				}
				if used != len(data) || len(t) != len(rows[i]) {
					return fmt.Errorf("decoded %d of %d bytes, %d of %d attributes", used, len(data), len(t), len(rows[i]))
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		// One decoded row re-encodes to the bytes it came from.
		t, _, _ := types.DecodeTuple(schema, enc[0])
		if !bytes.Equal(t.AppendTo(nil), enc[0]) {
			return 0, fmt.Errorf("tuple does not survive a decode/encode round trip")
		}
		return mbPerS(wireBytes(rows), n, el), nil
	}
	if out["types.tuple_decode_small_mb_s"], err = decode(sequoia.GraphsSchema(), graphs); err != nil {
		return nil, err
	}
	if out["types.tuple_decode_raster_mb_s"], err = decode(sequoia.RastersSchema(), rasters); err != nil {
		return nil, err
	}
	return out, nil
}

// driveBatchCodec times EncodeBatch and DecodeBatch on a batch of small
// rows, DecodeBatch on a batch of rasters, and counts the allocations
// DecodeBatch makes per small tuple.
func driveBatchCodec(c *driverCtx) (map[string]float64, error) {
	graphs, err := c.table(0, "Graphs")
	if err != nil {
		return nil, err
	}
	rasters, err := c.table(0, "Rasters")
	if err != nil {
		return nil, err
	}
	small := graphs
	if len(small) > batchRows {
		small = small[:batchRows]
	}
	out := make(map[string]float64)

	var payload []byte
	n, el, _ := c.loop(func() error {
		payload = wire.EncodeBatch(small)
		return nil
	})
	out["wire.batch_encode_mb_s"] = mbPerS(int64(len(payload)), n, el)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, el, err = c.loop(func() error {
		got, err := wire.DecodeBatch(sequoia.GraphsSchema(), payload)
		if err == nil && len(got) != len(small) {
			err = fmt.Errorf("decoded %d of %d tuples", len(got), len(small))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	out["wire.batch_decode_mb_s"] = mbPerS(int64(len(payload)), n, el)
	out["wire.batch_decode_allocs_per_tuple"] = float64(after.Mallocs-before.Mallocs) / float64(n*len(small))

	rpayload := wire.EncodeBatch(rasters)
	n, el, err = c.loop(func() error {
		got, err := wire.DecodeBatch(sequoia.RastersSchema(), rpayload)
		if err == nil && len(got) != len(rasters) {
			err = fmt.Errorf("decoded %d of %d raster tuples", len(got), len(rasters))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["wire.batch_decode_raster_mb_s"] = mbPerS(int64(len(rpayload)), n, el)
	return out, nil
}

// connPair returns two framed connections joined by an in-memory pipe.
func connPair() (*wire.Conn, *wire.Conn, func()) {
	a, b := net.Pipe()
	return wire.NewConn(a), wire.NewConn(b), func() { a.Close(); b.Close() }
}

// driveBatchStream times a BatchWriter feeding a BatchReader across a
// pipe: encode, frame, copy, deframe, decode — the whole tuple-stream
// path of a fragment, without the operators.
func driveBatchStream(c *driverCtx) (map[string]float64, error) {
	graphs, err := c.table(0, "Graphs")
	if err != nil {
		return nil, err
	}
	tx, rx, closeBoth := connPair()
	defer closeBoth()
	n, el, err := c.loop(func() error {
		sent := make(chan error, 1)
		go func() {
			w := wire.NewBatchWriter(tx)
			for _, t := range graphs {
				if err := w.Write(t); err != nil {
					sent <- err
					return
				}
			}
			if err := w.Flush(); err != nil {
				sent <- err
				return
			}
			sent <- tx.Send(wire.MsgEOS, nil)
		}()
		r := wire.NewBatchReader(rx, sequoia.GraphsSchema())
		var got int
		for {
			t, err := r.Next()
			if err != nil {
				closeBoth() // unblock the sender before waiting for it
				<-sent
				return err
			}
			if t == nil {
				break
			}
			got++
		}
		if err := <-sent; err != nil {
			return err
		}
		if got != len(graphs) {
			return fmt.Errorf("streamed %d of %d tuples", got, len(graphs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{"wire.batch_stream_mb_s": mbPerS(wireBytes(graphs), n, el)}, nil
}

// driveFrames times raw framing: 64 KiB frames one way, and a one-byte
// frame ping-pong.
func driveFrames(c *driverCtx) (map[string]float64, error) {
	const frameBytes, framesPerIter, pingsPerIter = 64 << 10, 16, 64
	out := make(map[string]float64)

	tx, rx, closeBoth := connPair()
	defer closeBoth()
	payload := make([]byte, frameBytes)
	n, el, err := c.loop(func() error {
		sent := make(chan error, 1)
		go func() {
			for i := 0; i < framesPerIter; i++ {
				if err := tx.Send(wire.MsgTupleBatch, payload); err != nil {
					sent <- err
					return
				}
			}
			sent <- nil
		}()
		for i := 0; i < framesPerIter; i++ {
			if _, p, err := rx.Recv(); err != nil || len(p) != frameBytes {
				closeBoth()
				<-sent
				return fmt.Errorf("recv frame %d: %d bytes, %v", i, len(p), err)
			}
		}
		return <-sent
	})
	if err != nil {
		return nil, err
	}
	out["wire.frame_stream_mb_s"] = mbPerS(frameBytes*framesPerIter, n, el)

	// Echo server: returns every frame until the pipe closes.
	ptx, prx, closePing := connPair()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		for {
			t, p, err := prx.Recv()
			if err != nil || prx.Send(t, p) != nil {
				return
			}
		}
	}()
	n, el, err = c.loop(func() error {
		for i := 0; i < pingsPerIter; i++ {
			if err := ptx.Send(wire.MsgAck, []byte{1}); err != nil {
				return err
			}
			if _, _, err := ptx.Recv(); err != nil {
				return err
			}
		}
		return nil
	})
	closePing()
	<-echoed
	if err != nil {
		return nil, err
	}
	out["wire.frame_roundtrip_us"] = nsPer(int64(n)*pingsPerIter, el) / 1e3
	return out, nil
}
