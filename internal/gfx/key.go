package gfx

import (
	"encoding/binary"
	"hash/maphash"
	"unsafe"

	"uniint/internal/metrics"
)

// Key is a 128-bit content address of a rectangle of pixels: two
// independently seeded hash/maphash hashes over the rectangle's geometry
// and its rows. Equal geometry and pixels give equal keys within one
// process. The seeds are per process, so a Key is never compared across
// processes.
type Key [2]uint64

var keySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// gfx_rows_keyed_total counts the full-width rows whose key Key computed
// from pixels: rows never keyed, and rows written since they were.
var mRowsKeyed = metrics.Default().Counter("gfx_rows_keyed_total")

// wrote advances Gen for a write to rows [y0, y1) and stamps those rows,
// so the next Key re-reads them. Every pixel write of a Framebuffer method
// goes through it.
func (f *Framebuffer) wrote(y0, y1 int) {
	f.gen++
	if f.stale != nil {
		for y := y0; y < y1; y++ {
			f.stale[y] = f.gen
		}
	}
}

// Key returns the content address of the pixels of f inside r, clipped to
// f. A full-width span reuses each row's key from an earlier Key unless a
// write stamped the row since, so re-keying a frame reads only the rows
// written in between; the memo costs 24 bytes per row of a frame that was
// ever keyed whole-width. A narrower rectangle, such as a tile, is keyed
// fresh. The key is the same either way.
//
// Key writes the row memo: call it under the same serialisation as the
// frame's pixel writes (a toolkit display's framebuffer lock).
func (f *Framebuffer) Key(r Rect) Key {
	r = r.Intersect(f.Bounds())
	var a, b maphash.Hash
	a.SetSeed(keySeeds[0])
	b.SetSeed(keySeeds[1])
	var g [16]byte
	binary.LittleEndian.PutUint64(g[:], uint64(r.W))
	binary.LittleEndian.PutUint64(g[8:], uint64(r.H))
	a.Write(g[:])
	b.Write(g[:])
	if r.Empty() || r.W < f.w {
		for y := r.Y; y < r.MaxY(); y++ {
			k := [1]Key{rowKey(f.pix[y*f.w+r.X : y*f.w+r.MaxX()])}
			a.Write(keyBytes(k[:]))
			b.Write(keyBytes(k[:]))
		}
		return Key{a.Sum64(), b.Sum64()}
	}
	if f.keys == nil {
		f.keys, f.stale = make([]Key, f.h), make([]uint64, f.h)
		for y := range f.stale {
			f.stale[y] = ^uint64(0) // never keyed
		}
	}
	keyed := 0
	for y := r.Y; y < r.MaxY(); y++ {
		if f.stale[y] != 0 {
			f.keys[y], f.stale[y] = rowKey(f.pix[y*f.w:(y+1)*f.w]), 0
			keyed++
		}
	}
	if keyed > 0 {
		mRowsKeyed.Add(int64(keyed))
	}
	a.Write(keyBytes(f.keys[r.Y:r.MaxY()]))
	b.Write(keyBytes(f.keys[r.Y:r.MaxY()]))
	return Key{a.Sum64(), b.Sum64()}
}

// rowKey keys one row's pixels under both seeds.
func rowKey(row []Color) Key {
	p := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(row))), len(row)*4)
	return Key{maphash.Bytes(keySeeds[0], p), maphash.Bytes(keySeeds[1], p)}
}

// keyBytes views row keys as the bytes the span's key hashes.
func keyBytes(ks []Key) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ks))), len(ks)*16)
}
