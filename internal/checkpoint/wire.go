package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"repro/internal/accel"
	"repro/internal/img"
	"repro/internal/zoo"
)

func crcIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// writer appends little-endian primitives to one buffer, the whole
// checkpoint. Sections are framed in place: open writes the header with a
// length placeholder, close back-patches the length and appends the CRC of
// the payload where it sits.
type writer struct {
	buf []byte
}

// open starts section id and returns the offset of its payload.
func (w *writer) open(id uint32) int {
	w.u32(id)
	w.u32(0)
	return len(w.buf)
}

// close ends the section whose payload starts at start.
func (w *writer) close(start int) {
	payload := w.buf[start:]
	binary.LittleEndian.PutUint32(w.buf[start-4:], uint32(len(payload)))
	w.u32(crcIEEE(payload))
}

func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *writer) pair(p zoo.Pair) {
	w.str(p.Model)
	w.str(p.ProcID)
	w.i64(int64(p.Kind))
}

// strSize, pairSize and imageSize are the encoded lengths of str, pair and
// image.
func strSize(s string) int    { return 4 + len(s) }
func pairSize(p zoo.Pair) int { return strSize(p.Model) + strSize(p.ProcID) + 8 }

func imageSize(im *img.Image) int {
	if im == nil {
		return 1
	}
	return 1 + 3*4 + len(im.Pix)
}

// image writes a presence byte, dimensions and raw pixels (nil is absent).
func (w *writer) image(im *img.Image) {
	if im == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.u32(uint32(im.W))
	w.u32(uint32(im.H))
	w.u32(uint32(len(im.Pix)))
	w.buf = append(w.buf, im.Pix...)
}

// reader consumes little-endian primitives with a sticky error: the first
// failure pins r.err and every later read returns zero values, so decode
// paths read straight through and check once. truncErr is the error class a
// short read maps to — ErrTruncated at the framing layer, ErrCorrupt inside
// a CRC-valid section payload.
type reader struct {
	b        []byte
	off      int
	err      error
	truncErr error
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.fail(fmt.Errorf("%w: need %d bytes, %d left", r.truncErr, n, r.remaining()))
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64         { return int64(r.u64()) }
func (r *reader) f64() float64       { return math.Float64frombits(r.u64()) }
func (r *reader) dur() time.Duration { return time.Duration(r.i64()) }

// int reads an i64 and rejects values outside the int range of 32-bit
// platforms — nothing the format carries legitimately approaches it.
func (r *reader) int() int {
	v := r.i64()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(fmt.Errorf("%w: integer %d out of range", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

// count reads an element count and bounds it by what the remaining bytes
// could possibly hold at minSize bytes per element, so a crafted count can
// never force an allocation the input's own length does not pay for.
func (r *reader) count(minSize int) int {
	v := r.i64()
	if v < 0 || v > int64(r.remaining()/minSize) {
		r.fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, v, r.remaining()))
		return 0
	}
	return int(v)
}

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: boolean out of range", ErrCorrupt))
		return false
	}
}

func (r *reader) str() string {
	n := r.u32()
	if r.err == nil && int64(n) > int64(r.remaining()) {
		r.fail(fmt.Errorf("%w: string length %d exceeds %d remaining bytes", r.truncErr, n, r.remaining()))
		return ""
	}
	return string(r.take(int(n)))
}

// block reads a length-prefixed byte slice (a section payload).
func (r *reader) block() []byte {
	n := r.u32()
	if r.err == nil && int64(n) > int64(r.remaining()) {
		r.fail(fmt.Errorf("%w: section length %d exceeds %d remaining bytes", r.truncErr, n, r.remaining()))
		return nil
	}
	return r.take(int(n))
}

func (r *reader) pair() zoo.Pair {
	p := zoo.Pair{Model: r.str(), ProcID: r.str()}
	k := r.i64()
	if r.err == nil && (k < 0 || k > math.MaxInt32) {
		r.fail(fmt.Errorf("%w: accelerator kind %d out of range", ErrCorrupt, k))
		return zoo.Pair{}
	}
	p.Kind = accel.Kind(k)
	return p
}

func (r *reader) image() *img.Image {
	switch r.u8() {
	case 0:
		return nil
	case 1:
	default:
		if r.err == nil {
			r.fail(fmt.Errorf("%w: image presence byte out of range", ErrCorrupt))
		}
		return nil
	}
	w := r.u32()
	h := r.u32()
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if int64(n) > int64(r.remaining()) || uint64(w)*uint64(h) != uint64(n) {
		r.fail(fmt.Errorf("%w: image %dx%d with %d pixels", ErrCorrupt, w, h, n))
		return nil
	}
	pix := r.take(int(n))
	if pix == nil {
		return nil
	}
	return &img.Image{W: int(w), H: int(h), Pix: append([]uint8(nil), pix...)}
}

// close asserts a section payload was consumed exactly: leftover bytes in a
// CRC-valid payload mean a malformed encoding.
func (r *reader) close(id uint32) error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%w: section %d carries %d trailing bytes", ErrCorrupt, id, r.remaining())
	}
	return nil
}
