package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

// File format: synthetic traces are plain streams of fixed-width
// little-endian records behind a small header, so multi-gigabyte traces
// stream in constant memory in both directions.
var fileMagic = [4]byte{'S', 'T', 'R', 'C'}

const fileVersion = 1

// recordBytes is the on-disk size of one instruction record.
const recordBytes = 8 + 8 + 8 + 8 + // Seq PC NextPC EffAddr
	4*isa.MaxSrcOperands + 4 + // DepDist WAWDist
	4 + 2 + 1 + 1 + 1 + 2 // BlockID Index NumSrcs Class Taken Flags

// WriteTrace streams all instructions from src to w, returning how many
// records were written.
func WriteTrace(w io.Writer, src Source) (uint64, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(fileVersion)); err != nil {
		return 0, err
	}
	var buf [recordBytes]byte
	var n uint64
	chunk := GetBatch()
	defer PutBatch(chunk)
	for k := src.NextBatch(chunk); k > 0; k = src.NextBatch(chunk) {
		for i := range chunk[:k] {
			encodeRecord(&buf, &chunk[i])
			if _, err := bw.Write(buf[:]); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, bw.Flush()
}

func encodeRecord(buf *[recordBytes]byte, d *DynInst) {
	le := binary.LittleEndian
	off := 0
	put64 := func(v uint64) { le.PutUint64(buf[off:], v); off += 8 }
	put32 := func(v uint32) { le.PutUint32(buf[off:], v); off += 4 }
	put64(d.Seq)
	put64(d.PC)
	put64(d.NextPC)
	put64(d.EffAddr)
	for _, dd := range d.DepDist {
		put32(dd)
	}
	put32(d.WAWDist)
	put32(uint32(d.BlockID))
	le.PutUint16(buf[off:], uint16(d.Index))
	off += 2
	buf[off] = d.NumSrcs
	off++
	buf[off] = byte(d.Class)
	off++
	if d.Taken {
		buf[off] = 1
	} else {
		buf[off] = 0
	}
	off++
	le.PutUint16(buf[off:], uint16(d.Flags))
}

// Reader streams a trace file as a Source.
type Reader struct {
	br  *bufio.Reader
	err error
}

// NewReader validates the header and returns a streaming Source.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("trace: not a trace file (magic %q)", magic[:])
	}
	var ver uint32
	if err := binary.Read(br, binary.LittleEndian, &ver); err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	return &Reader{br: br}, nil
}

// NextBatch implements Source, decoding records straight into dst. A
// read error or a truncated final record ends the stream; Err reports
// it.
func (r *Reader) NextBatch(dst []DynInst) int {
	var buf [recordBytes]byte
	n := 0
	for ; n < len(dst) && r.err == nil; n++ {
		if _, r.err = io.ReadFull(r.br, buf[:]); r.err != nil {
			break
		}
		decodeRecord(&buf, &dst[n])
	}
	return n
}

// Err returns the first non-EOF error encountered while reading.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

func decodeRecord(buf *[recordBytes]byte, d *DynInst) {
	le := binary.LittleEndian
	off := 0
	get64 := func() uint64 { v := le.Uint64(buf[off:]); off += 8; return v }
	get32 := func() uint32 { v := le.Uint32(buf[off:]); off += 4; return v }
	d.Seq = get64()
	d.PC = get64()
	d.NextPC = get64()
	d.EffAddr = get64()
	for i := range d.DepDist {
		d.DepDist[i] = get32()
	}
	d.WAWDist = get32()
	d.BlockID = int32(get32())
	d.Index = int16(le.Uint16(buf[off:]))
	off += 2
	d.NumSrcs = buf[off]
	off++
	d.Class = isa.Class(buf[off])
	off++
	d.Taken = buf[off] == 1
	off++
	d.Flags = Flags(le.Uint16(buf[off:]))
}

var _ Source = (*Reader)(nil)
