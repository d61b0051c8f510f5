package trace

import (
	"bufio"
	"io"
	"strconv"
)

// WriteJSONL writes the recorded event stream as one JSON object per line.
// Field names are kind-specific (e.g. a token event carries "depth", a
// mem-issue event carries "stall") so the stream is greppable without a
// schema. The writer is deterministic: lines are emitted in recording
// order and numbers are rendered with strconv, so two runs with the same
// seed produce byte-identical output.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, e := range t.events {
		buf = appendEventJSON(buf[:0], e)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func appendEventJSON(buf []byte, e Event) []byte {
	buf = append(buf, `{"t":`...)
	buf = strconv.AppendInt(buf, e.T, 10)
	buf = append(buf, `,"ev":"`...)
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, '"')
	if e.PE >= 0 {
		buf = append(buf, `,"pe":`...)
		buf = strconv.AppendInt(buf, int64(e.PE), 10)
	}
	if int(e.Kind) < len(kinds) {
		k := kinds[e.Kind]
		buf = appendField(buf, k.a, e.A)
		buf = appendField(buf, k.b, e.B)
	}
	return append(buf, '}')
}

// appendField writes one payload as ,"name":v; an unnamed payload is unused
// and omitted.
func appendField(buf []byte, name string, v int64) []byte {
	if name == "" {
		return buf
	}
	buf = append(buf, ',', '"')
	buf = append(buf, name...)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, v, 10)
}

// WriteChromeTrace writes the run in the Chrome trace_event JSON format
// (load the file in chrome://tracing or https://ui.perfetto.dev). The
// sampled per-cycle series become counter tracks ("ph":"C") — fires,
// tokens, mesh traffic, link and ordering stalls, queue depths — with ts
// equal to the cycle number, and discrete events (drops, retries, kills,
// swaps, placements) become instant events ("ph":"i"). Output is
// deterministic for a fixed seed.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[` + "\n"); err != nil {
		return err
	}
	first := true
	var buf []byte
	emit := func(line []byte) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.Write(line)
		return err
	}
	counter := func(ts int64, name string, value int64) error {
		buf = buf[:0]
		buf = append(buf, `{"ph":"C","pid":0,"tid":0,"ts":`...)
		buf = strconv.AppendInt(buf, ts, 10)
		buf = append(buf, `,"name":"`...)
		buf = append(buf, name...)
		buf = append(buf, `","args":{"value":`...)
		buf = strconv.AppendInt(buf, value, 10)
		buf = append(buf, `}}`...)
		return emit(buf)
	}
	for i, b := range t.buckets {
		ts := int64(i) * t.cfg.SampleInterval
		for _, c := range [...]struct {
			name string
			v    int64
		}{
			{"fires", b.Fires},
			{"tokens", b.Tokens},
			{"mesh msgs", b.MeshMsgs},
			{"link stall", b.LinkStall},
			{"mem issues", b.MemIssues},
			{"order stall", b.OrderStall},
			{"max queue depth", b.MaxQueue},
			{"max mem pending", b.MaxPending},
		} {
			if err := counter(ts, c.name, c.v); err != nil {
				return err
			}
		}
	}
	for _, e := range t.events {
		switch e.Kind {
		case KindDrop, KindRetry, KindKill, KindSwap, KindOverflow, KindPlace, KindWaveDone:
			buf = buf[:0]
			buf = append(buf, `{"ph":"i","pid":0,"tid":`...)
			tid := int64(0)
			if e.PE >= 0 {
				tid = int64(e.PE)
			}
			buf = strconv.AppendInt(buf, tid, 10)
			buf = append(buf, `,"ts":`...)
			buf = strconv.AppendInt(buf, e.T, 10)
			buf = append(buf, `,"s":"g","name":"`...)
			buf = append(buf, e.Kind.String()...)
			buf = append(buf, `"}`...)
			if err := emit(buf); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
