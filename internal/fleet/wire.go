package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/reconfig"
	"repro/internal/routing"
)

// BatchContentType is the Content-Type that selects the binary frame
// on POST /decide/batch. The frame is what fleet.Client speaks; any
// other Content-Type gets the JSON encoding, which stays the one a
// human with curl reads and writes. A 200 answer to a frame is a
// frame; every other status carries the JSON error document.
//
// All integers are little-endian and fixed-width (DESIGN.md §9.3 has
// the offset tables):
//
//	request   "RDQ" version:u8 count:u32, then count records of
//	          node src dst length : i32
//	          in_port in_vc misroutes phase detour_level vnet : i16
//	          flags:u8 (bit 0 = marked, the rest must be zero)
//	response  "RDR" version:u8 count:u32 candidates:u32, then count of
//	          epoch:u64 kind:u8 n:u16, followed by
//	          kind 0: n candidates of port:i16 vc:i16 (n = 0: unroutable)
//	          kind 1: n bytes of per-decision error text
//
// The frame judges nothing about a request: any value that fits its
// field reaches the server's one decide core, which reports a node or
// port outside the topology per decision exactly as for a JSON body.
// A value that does not fit its field is an encoder error, never a
// truncation.
const BatchContentType = "application/x-routerd-batch"

const (
	frameVersion = 1

	requestHeaderLen  = 8
	requestRecordLen  = 29
	responseHeaderLen = 12
	decisionHeaderLen = 11
	candidateLen      = 4

	kindCandidates = 0
	kindError      = 1

	flagMarked = 1
)

const (
	requestMagic  = "RDQ"
	responseMagic = "RDR"
)

// requestFields names a request record's integer fields in frame
// order: four i32, then six i16.
var requestFields = [...]string{"node", "src", "dst", "length",
	"in_port", "in_vc", "misroutes", "phase", "detour_level", "vnet"}

// frameVersions is the valid-choice list of a version error.
var frameVersions = []string{"1"}

// errFrameVersion marks a well-formed header of a version this build
// does not speak; the server answers it with the valid list.
var errFrameVersion = errors.New("unsupported frame version")

// frameCount checks magic and version and returns the count field.
func frameCount(frame []byte, magic string, headerLen int) (int, error) {
	if len(frame) < headerLen {
		return 0, fmt.Errorf("frame of %d bytes is shorter than its %d-byte header", len(frame), headerLen)
	}
	if string(frame[:3]) != magic {
		return 0, fmt.Errorf("frame starts with %q, want %q", frame[:3], magic)
	}
	if frame[3] != frameVersion {
		return 0, fmt.Errorf("%w %d", errFrameVersion, frame[3])
	}
	return int(binary.LittleEndian.Uint32(frame[4:])), nil
}

func appendFrameHeader(dst []byte, magic string, count int) []byte {
	dst = append(dst, magic...)
	dst = append(dst, frameVersion)
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

// checkCount refuses a batch whose length the count field cannot hold.
func checkCount(n int) error {
	if n > math.MaxUint32 {
		return fmt.Errorf("batch of %d decisions does not fit the frame's count field", n)
	}
	return nil
}

func appendI32(dst []byte, field string, v int) ([]byte, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return dst, fmt.Errorf("%s %d does not fit the frame's 32-bit field", field, v)
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(v))), nil
}

func appendI16(dst []byte, field string, v int) ([]byte, error) {
	if v < math.MinInt16 || v > math.MaxInt16 {
		return dst, fmt.Errorf("%s %d does not fit the frame's 16-bit field", field, v)
	}
	return binary.LittleEndian.AppendUint16(dst, uint16(int16(v))), nil
}

func getI32(b []byte) int { return int(int32(binary.LittleEndian.Uint32(b))) }
func getI16(b []byte) int { return int(int16(binary.LittleEndian.Uint16(b))) }

// AppendBatchRequest appends the request frame of reqs[order[0]],
// reqs[order[1]], … to dst: order is the scatter's sub-batch, the
// positions one replica owns, so a sub-batch is encoded straight from
// the caller's slice.
func AppendBatchRequest(dst []byte, reqs []reconfig.DecisionRequest, order []int) ([]byte, error) {
	if err := checkCount(len(order)); err != nil {
		return dst, err
	}
	dst = appendFrameHeader(dst, requestMagic, len(order))
	var err error
	for _, i := range order {
		r := &reqs[i]
		for j, v := range [...]int{r.Node, r.Src, r.Dst, r.Length,
			r.InPort, r.InVC, r.Misroutes, r.Phase, r.DetourLevel, r.VNet} {
			if j < 4 {
				dst, err = appendI32(dst, requestFields[j], v)
			} else {
				dst, err = appendI16(dst, requestFields[j], v)
			}
			if err != nil {
				return dst, fmt.Errorf("request %d: %w", i, err)
			}
		}
		var flags byte
		if r.Marked {
			flags = flagMarked
		}
		dst = append(dst, flags)
	}
	return dst, nil
}

// batchRequestCount validates a request frame's header and that its
// length is exactly the header plus count records, so a caller can
// bound count before anything is allocated for the records.
func batchRequestCount(frame []byte) (int, error) {
	n, err := frameCount(frame, requestMagic, requestHeaderLen)
	if err != nil {
		return 0, err
	}
	if got := len(frame) - requestHeaderLen; int64(got) != int64(n)*requestRecordLen {
		return 0, fmt.Errorf("frame announces %d records of %d bytes but carries %d bytes after the header",
			n, requestRecordLen, got)
	}
	return n, nil
}

// decodeRequests appends the n records of a frame batchRequestCount
// accepted to dst.
func decodeRequests(frame []byte, n int, dst []reconfig.DecisionRequest) ([]reconfig.DecisionRequest, error) {
	for i := 0; i < n; i++ {
		b := frame[requestHeaderLen+i*requestRecordLen:][:requestRecordLen]
		if b[28]&^flagMarked != 0 {
			return dst, fmt.Errorf("record %d: flags byte %#02x sets bits the frame does not define", i, b[28])
		}
		dst = append(dst, reconfig.DecisionRequest{
			Node: getI32(b[0:]), Src: getI32(b[4:]), Dst: getI32(b[8:]), Length: getI32(b[12:]),
			InPort: getI16(b[16:]), InVC: getI16(b[18:]), Misroutes: getI16(b[20:]),
			Phase: getI16(b[22:]), DetourLevel: getI16(b[24:]), VNet: getI16(b[26:]),
			Marked: b[28] == flagMarked,
		})
	}
	return dst, nil
}

// DecodeBatchRequest appends the requests of a request frame to dst.
func DecodeBatchRequest(frame []byte, dst []reconfig.DecisionRequest) ([]reconfig.DecisionRequest, error) {
	n, err := batchRequestCount(frame)
	if err != nil {
		return dst, err
	}
	return decodeRequests(frame, n, dst)
}

// responseFrame builds a response frame decision by decision: the
// server appends each answer as it is served, without a []Decision in
// between.
type responseFrame struct {
	b                 []byte
	start, candidates int
}

// beginResponse starts a frame of count decisions at the end of dst.
func beginResponse(dst []byte, count int) responseFrame {
	f := responseFrame{start: len(dst)}
	f.b = append(appendFrameHeader(dst, responseMagic, count), 0, 0, 0, 0) // the candidate total, known at finish
	return f
}

// add appends one decision record: the error text when errText is
// set, the candidates otherwise.
func (f *responseFrame) add(cands []routing.Candidate, epoch uint64, errText string) error {
	f.b = binary.LittleEndian.AppendUint64(f.b, epoch)
	n, kind := len(cands), byte(kindCandidates)
	if errText != "" {
		n, kind = len(errText), kindError
	}
	if n > math.MaxUint16 {
		return fmt.Errorf("decision with %d candidates or bytes of error text does not fit the frame's 16-bit length", n)
	}
	f.b = append(f.b, kind)
	f.b = binary.LittleEndian.AppendUint16(f.b, uint16(n))
	if kind == kindError {
		f.b = append(f.b, errText...)
		return nil
	}
	var err error
	for _, c := range cands {
		if f.b, err = appendI16(f.b, "candidate port", c.Port); err != nil {
			return err
		}
		if f.b, err = appendI16(f.b, "candidate vc", c.VC); err != nil {
			return err
		}
	}
	f.candidates += n
	return nil
}

// finish fills in the candidate total and returns dst with the frame
// appended.
func (f *responseFrame) finish() []byte {
	binary.LittleEndian.PutUint32(f.b[f.start+8:], uint32(f.candidates))
	return f.b
}

// AppendBatchResponse appends the response frame of ds to dst. A
// decision is served as its error or as its candidates, never both;
// Unroutable is not carried, it is what zero candidates without an
// error means.
func AppendBatchResponse(dst []byte, ds []Decision) ([]byte, error) {
	if err := checkCount(len(ds)); err != nil {
		return dst, err
	}
	f := beginResponse(dst, len(ds))
	for i := range ds {
		d := &ds[i]
		if d.Error != "" && len(d.Candidates) != 0 || d.Unroutable != (d.Error == "" && len(d.Candidates) == 0) {
			return dst, fmt.Errorf("decision %d is not one a replica serves: %+v", i, *d)
		}
		if err := f.add(d.Candidates, d.Epoch, d.Error); err != nil {
			return dst, fmt.Errorf("decision %d: %w", i, err)
		}
	}
	return f.finish(), nil
}

// DecodeBatchResponse decodes a response frame of len(order) decisions
// into out[order[0]], out[order[1]], … — the gather of the sub-batch
// AppendBatchRequest scattered. The candidates of the whole frame
// share one backing array; each decision's slice is capped so an
// append by the caller cannot reach its neighbour.
func DecodeBatchResponse(frame []byte, out []Decision, order []int) error {
	n, err := frameCount(frame, responseMagic, responseHeaderLen)
	if err != nil {
		return err
	}
	if n != len(order) {
		return fmt.Errorf("batch of %d answered with %d decisions", len(order), n)
	}
	total := int(binary.LittleEndian.Uint32(frame[8:]))
	body := frame[responseHeaderLen:]
	// Both sizes are bounded by the bytes present before they size an
	// allocation or a loop.
	if int64(n)*decisionHeaderLen+int64(total)*candidateLen > int64(len(body)) {
		return fmt.Errorf("frame announces %d decisions and %d candidates but carries %d bytes after the header",
			n, total, len(body))
	}
	cands := make([]routing.Candidate, 0, total)
	for _, i := range order {
		if len(body) < decisionHeaderLen {
			return fmt.Errorf("frame ends inside a decision header")
		}
		d := Decision{Epoch: binary.LittleEndian.Uint64(body)}
		kind, m := body[8], int(binary.LittleEndian.Uint16(body[9:]))
		body = body[decisionHeaderLen:]
		switch kind {
		case kindError:
			if m == 0 || m > len(body) {
				return fmt.Errorf("error text of %d bytes, want 1 to the %d the frame has left", m, len(body))
			}
			d.Error = string(body[:m])
			body = body[m:]
		case kindCandidates:
			if m > cap(cands)-len(cands) || m*candidateLen > len(body) {
				return fmt.Errorf("decision with %d candidates overruns the frame (%d announced in all)", m, total)
			}
			from := len(cands)
			for ; m > 0; m-- {
				cands = append(cands, routing.Candidate{Port: getI16(body), VC: getI16(body[2:])})
				body = body[candidateLen:]
			}
			d.Candidates = cands[from:len(cands):len(cands)]
			d.Unroutable = from == len(cands)
		default:
			return fmt.Errorf("decision kind %d is not one the frame defines", kind)
		}
		out[i] = d
	}
	if len(cands) != total || len(body) != 0 {
		return fmt.Errorf("frame announces %d candidates and carries %d, with %d trailing bytes", total, len(cands), len(body))
	}
	return nil
}

// readAll is io.ReadAll into a caller-owned (pooled) buffer.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}
