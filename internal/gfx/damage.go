package gfx

// Damage accumulates dirty rectangles between renders. The toolkit adds a
// rectangle whenever a widget invalidates itself; the UniInt server flushes
// the accumulated region into FramebufferUpdate messages on demand (RFB's
// demand-driven update model).
//
// The tracker keeps a small list of disjoint-ish rectangles and merges
// aggressively once the list grows past a threshold, trading a little
// over-coverage for bounded bookkeeping — the same trade made by classic
// thin-client servers.
type Damage struct {
	rects  []Rect
	bounds Rect // clip: rectangles are clipped to this on Add
	limit  int
	trace  uint64 // interaction trace id attributed to the pending damage
}

// NewDamage creates a tracker clipped to bounds. limit caps the number of
// distinct rectangles kept before coalescing (values below 1 default to 8).
func NewDamage(bounds Rect, limit int) *Damage {
	if limit < 1 {
		limit = 8
	}
	return &Damage{bounds: bounds, limit: limit}
}

// Add marks r as dirty.
func (d *Damage) Add(r Rect) {
	r = r.Intersect(d.bounds)
	if r.Empty() {
		return
	}
	// Absorb rectangles already covered, and skip the add when covered.
	for i := 0; i < len(d.rects); i++ {
		if d.rects[i].ContainsRect(r) {
			return
		}
		if r.ContainsRect(d.rects[i]) {
			d.rects[i] = d.rects[len(d.rects)-1]
			d.rects = d.rects[:len(d.rects)-1]
			i--
		}
	}
	// Merge with an existing rectangle only when the union is an exact
	// cover — the two rectangles overlap or tile so that their bounding
	// box contains no undamaged pixels. Anything looser waits for limit
	// pressure (coalesce), which is the only point allowed to trade
	// over-coverage for bounded bookkeeping.
	for i, s := range d.rects {
		u := s.Union(r)
		if u.Area() == s.Area()+r.Area()-s.Intersect(r).Area() {
			d.rects[i] = u
			d.absorbInto(i)
			return
		}
	}
	d.rects = append(d.rects, r)
	if len(d.rects) > d.limit {
		d.coalesce()
	}
}

// AddAll marks the whole clip bounds dirty.
func (d *Damage) AddAll() {
	d.rects = d.rects[:0]
	if !d.bounds.Empty() {
		d.rects = append(d.rects, d.bounds)
	}
}

// coalesce repeatedly merges the pair of rectangles whose union covers the
// fewest undamaged pixels until the list fits the limit again. Waste is
// overlap-aware (the bounding box area minus the area the pair actually
// covers), so exactly-covering merges are always preferred and disjoint
// far-apart rectangles are only merged when limit pressure leaves no
// better pair.
func (d *Damage) coalesce() {
	for len(d.rects) > d.limit {
		bi, bj, bw := 0, 1, int(^uint(0)>>1)
		for i := 0; i < len(d.rects); i++ {
			for j := i + 1; j < len(d.rects); j++ {
				u := d.rects[i].Union(d.rects[j])
				covered := d.rects[i].Area() + d.rects[j].Area() -
					d.rects[i].Intersect(d.rects[j]).Area()
				waste := u.Area() - covered
				if waste < bw {
					bi, bj, bw = i, j, waste
				}
			}
		}
		d.rects[bi] = d.rects[bi].Union(d.rects[bj])
		d.rects[bj] = d.rects[len(d.rects)-1]
		d.rects = d.rects[:len(d.rects)-1]
		d.absorbInto(bi)
	}
}

// absorbInto removes rectangles fully contained in d.rects[i] — a merge
// can grow a rectangle over previously separate neighbours, which would
// otherwise stay behind and be encoded twice.
func (d *Damage) absorbInto(i int) {
	u := d.rects[i]
	for j := 0; j < len(d.rects); j++ {
		if j == i || !u.ContainsRect(d.rects[j]) {
			continue
		}
		last := len(d.rects) - 1
		d.rects[j] = d.rects[last]
		d.rects = d.rects[:last]
		if i == last {
			i = j
		}
		j--
	}
}

// MarkTrace attributes the pending damage to the sampled interaction id.
// First writer wins: damage already attributed keeps its interaction
// until TakeTrace drains the tag (coalesced damage from several
// interactions is credited to the earliest, matching how the coalesced
// update that ships it is credited).
func (d *Damage) MarkTrace(id uint64) {
	if d.trace == 0 {
		d.trace = id
	}
}

// TakeTrace returns-and-clears the trace id attributed to the pending
// damage (0 when untraced). Renderers call it alongside TakeInto.
func (d *Damage) TakeTrace() uint64 {
	id := d.trace
	d.trace = 0
	return id
}

// Empty reports whether no damage is pending.
func (d *Damage) Empty() bool { return len(d.rects) == 0 }

// ClipBounds returns the clip rectangle damage is limited to.
func (d *Damage) ClipBounds() Rect { return d.bounds }

// TakeInto returns the pending rectangles and re-arms the tracker with
// spare's storage (length reset to zero). Callers on a hot path ping-pong
// two slices through TakeInto so the tracker never reallocates in steady
// state.
func (d *Damage) TakeInto(spare []Rect) []Rect {
	out := d.rects
	d.rects = spare[:0]
	return out
}

// Peek returns a copy of the pending rectangles without resetting.
func (d *Damage) Peek() []Rect {
	out := make([]Rect, len(d.rects))
	copy(out, d.rects)
	return out
}

// Resize changes the clip bounds (e.g. after a desktop resize) and marks
// everything dirty.
func (d *Damage) Resize(bounds Rect) {
	d.bounds = bounds
	d.AddAll()
}
