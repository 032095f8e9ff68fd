package cubexml

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"cube/internal/core"
)

// The fast write path. Metadata — small, irregular, full of strings that
// need escaping — still goes through encoding/xml via the shared
// buildDocMeta, so its bytes are the encoder's bytes by construction. The
// severity section — the bulk of any real file — is emitted by hand from
// the columnar store in one parallel pass, the mirror of the reader's
// parseMatrices:
//
//   - core.SeverityRanges splits the lowered block into row-aligned
//     shards, up to GOMAXPROCS of them;
//   - each shard's worker appends its rows straight into its own []byte
//     with appendValue (alloc-free formatting, no per-value writer call)
//     and, in the same pass, records the first non-finite value it meets;
//   - the shards are stitched in order, with <matrix> tags emitted only
//     where a shard's first metric differs from the previous non-empty
//     shard's last.
//
// Nothing reaches w until every shard has finished. A non-finite value
// returns the legacy writer's error for the first offender in (metric,
// call node, thread) order with zero bytes written, so an encoding error
// never leaves a truncated file behind. The metadata and severity halves
// are joined by splicing the severity block in front of the encoder's
// closing </cube> tag; the differential tests in fastwrite_test.go pin
// writeFast to writeLegacy byte for byte at forced shard counts.

func writeFast(w io.Writer, e *core.Experiment) error {
	return writeFastShards(w, e, 0)
}

// writeFastShards is writeFast with the severity section split into
// exactly shards ranges; 0 lets core.SeverityRanges choose. Only tests
// force a count.
func writeFastShards(w io.Writer, e *core.Experiment, shards int) error {
	metrics, cnodes, threads := e.Metrics(), e.CallNodes(), e.Threads()
	// The legacy dense walk visits nothing when any severity dimension is
	// empty, so neither does the fast path — even if an (invalid)
	// experiment stores tuples.
	var parts []sevShard
	if len(metrics) > 0 && len(cnodes) > 0 && len(threads) > 0 {
		parts = emitShards(e.SeverityRanges(shards))
		// Ranges partition the block in canonical order, so the first
		// shard that met a non-finite value holds the first offender.
		for _, p := range parts {
			if p.bad {
				return fmt.Errorf("cubexml: severity of metric %q at %q is %v; refusing to encode non-finite values",
					metrics[p.badMI].Name, cnodes[p.badCI].Path(), p.badV)
			}
		}
	}

	doc, _, _ := buildDocMeta(e)
	var meta bytes.Buffer
	meta.WriteString(xml.Header)
	enc := xml.NewEncoder(&meta)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("cubexml: encode: %w", err)
	}
	out := meta.Bytes()
	// Matrices is the last field of xCube and the encoder emits the
	// wrapper of an empty a>b slice, so the metadata document always ends
	// with an empty severity element before the root's closing tag. The
	// matrices are spliced into that wrapper.
	const tail = "\n  <severity></severity>\n</cube>"
	splice := len(out) - len(tail)
	if splice < 0 || string(out[splice:]) != tail {
		// Anything else means an encoder behaviour change — let the
		// reference writer produce the document.
		return writeLegacy(w, e)
	}

	// Stitch: the head of the metadata document, then the shards in
	// order, opening a matrix only where a shard starts on a metric the
	// previous non-empty shard did not end on.
	var stitched [][]byte
	stitched = append(stitched, out[:splice])
	cur := -1
	for _, p := range parts {
		if p.first < 0 {
			continue
		}
		var tag []byte
		if cur < 0 {
			tag = append(tag, "\n  <severity>"...)
		}
		if p.first != cur {
			if cur >= 0 {
				tag = append(tag, "\n    </matrix>"...)
			}
			tag = appendMatrixOpen(tag, p.first)
		}
		stitched = append(stitched, tag, p.buf)
		cur = p.last
	}
	if cur >= 0 {
		stitched = append(stitched, []byte("\n    </matrix>\n  </severity>\n</cube>\n"))
	} else {
		stitched = append(stitched, []byte("\n  <severity></severity>\n</cube>\n"))
	}
	for _, b := range stitched {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// sevShard is one worker's share of the severity section: its rows in the
// encoder's layout, with matrix transitions between its own rows already
// emitted but neither the opening tag of its first matrix nor the closing
// tag of its last.
type sevShard struct {
	buf         []byte
	first, last int // metric index of the first and last emitted row; -1 when none

	// The first non-finite value in the shard, if any.
	bad          bool
	badMI, badCI int
	badV         float64
}

// emitShards formats every range concurrently, one goroutine per range
// beyond the first, which runs on the caller's goroutine.
func emitShards(ranges []core.SeverityRange) []sevShard {
	parts := make([]sevShard, len(ranges))
	var wg sync.WaitGroup
	for i := 1; i < len(ranges); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts[i] = emitRange(ranges[i])
		}(i)
	}
	if len(ranges) > 0 {
		parts[0] = emitRange(ranges[0])
	}
	wg.Wait()
	return parts
}

// emitRange formats one range's rows: one row per call node, values
// space-separated in thread order, all-zero rows omitted. It stops at the
// first non-finite value, which makes the whole document an error.
func emitRange(r core.SeverityRange) sevShard {
	// Most values format to well under 16 bytes; append grows the rest.
	s := sevShard{buf: make([]byte, 0, 16*r.Tuples()), first: -1, last: -1}
	buf := s.buf
	r.EachRow(func(mi, ci int, vals []float64) bool {
		nonZero := false
		for _, v := range vals {
			if v != 0 {
				nonZero = true
				break
			}
		}
		if !nonZero {
			return true
		}
		if s.first < 0 {
			s.first = mi
		} else if mi != s.last {
			buf = append(buf, "\n    </matrix>"...)
			buf = appendMatrixOpen(buf, mi)
		}
		s.last = mi
		buf = append(buf, "\n      <row cnode=\""...)
		buf = strconv.AppendInt(buf, int64(ci), 10)
		buf = append(buf, "\">"...)
		for ti, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				s.bad, s.badMI, s.badCI, s.badV = true, mi, ci, v
				return false
			}
			if ti > 0 {
				buf = append(buf, ' ')
			}
			buf = appendValue(buf, v)
		}
		buf = append(buf, "</row>"...)
		return true
	})
	s.buf = buf
	return s
}

func appendMatrixOpen(dst []byte, mi int) []byte {
	dst = append(dst, "\n    <matrix metric=\""...)
	dst = strconv.AppendInt(dst, int64(mi), 10)
	return append(dst, "\">"...)
}
