package telemetry

import (
	"compress/gzip"
	"io"
)

// WriteProfileData renders per-phase cycle totals as a gzipped
// pprof-format profile (`go tool pprof` opens it directly): one
// synthetic function and one flat sample per phase, weighted by its
// cycles. names and cycles are parallel; mhz scales duration_nanos,
// and 0 omits it. The profile is a deterministic
// function of its arguments (no timestamps, no host state), so
// recordings made at any -j render identical bytes.
//
// The encoder is a hand-rolled subset of the profile.proto wire format
// (varints and length-delimited fields only), which keeps the module
// dependency-free: the stdlib has no protobuf support and the repo
// takes no external modules.
func WriteProfileData(w io.Writer, names []string, cycles []uint64, mhz int) error {
	// String table; index 0 must be "".
	strs := []string{""}
	intern := func(s string) uint64 {
		for i, have := range strs {
			if have == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	cyclesStr := intern("cycles")
	fileStr := intern("(mmutricks phase ledger)")

	var prof pbuf

	// sample_type = 1: one value per sample, "cycles"/"cycles".
	var vt pbuf
	vt.varintField(1, cyclesStr)
	vt.varintField(2, cyclesStr)
	prof.bytesField(1, vt.b)

	// One function (5), location (4) and sample (2) per phase. IDs are
	// 1-based (0 is "no function" in the format).
	for ph, name := range names {
		id := uint64(ph) + 1
		nameStr := intern(name)

		var fn pbuf
		fn.varintField(1, id)      // id
		fn.varintField(2, nameStr) // name
		fn.varintField(3, nameStr) // system_name
		fn.varintField(4, fileStr) // filename
		prof.bytesField(5, fn.b)

		var line pbuf
		line.varintField(1, id) // function_id
		var loc pbuf
		loc.varintField(1, id) // id
		loc.bytesField(4, line.b)
		prof.bytesField(4, loc.b)

		var sample pbuf
		sample.packedField(1, []uint64{id})         // location_id
		sample.packedField(2, []uint64{cycles[ph]}) // value
		prof.bytesField(2, sample.b)
	}

	for _, s := range strs {
		prof.stringField(6, s) // string_table
	}

	// duration_nanos = 10: simulated duration at the machine's clock.
	if mhz > 0 {
		var total uint64
		for _, c := range cycles {
			total += c
		}
		prof.varintField(10, total*1000/uint64(mhz))
	}

	// period_type = 11, period = 12.
	var pt pbuf
	pt.varintField(1, cyclesStr)
	pt.varintField(2, cyclesStr)
	prof.bytesField(11, pt.b)
	prof.varintField(12, 1)

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(prof.b); err != nil {
		return err
	}
	return gz.Close()
}

// pbuf is a minimal protobuf message builder.
type pbuf struct{ b []byte }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.b = append(p.b, byte(v)|0x80)
		v >>= 7
	}
	p.b = append(p.b, byte(v))
}

// varintField emits a wire-type-0 (varint) field.
func (p *pbuf) varintField(num int, v uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(v)
}

// bytesField emits a wire-type-2 (length-delimited) field.
func (p *pbuf) bytesField(num int, data []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(data)))
	p.b = append(p.b, data...)
}

func (p *pbuf) stringField(num int, s string) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(s)))
	p.b = append(p.b, s...)
}

// packedField emits a repeated varint field in packed encoding.
func (p *pbuf) packedField(num int, vs []uint64) {
	var body pbuf
	for _, v := range vs {
		body.varint(v)
	}
	p.bytesField(num, body.b)
}
