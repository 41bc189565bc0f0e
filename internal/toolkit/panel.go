package toolkit

import "uniint/internal/gfx"

// Panel is the container widget. It owns a Layout, an optional title
// (drawn as a group box) and a background color.
type Panel struct {
	widgetBase
	children   []Widget
	layout     Layout
	title      string
	background gfx.Color
	border     bool
}

var _ Widget = (*Panel)(nil)

// NewPanel creates an empty container using the given layout.
func NewPanel(layout Layout) *Panel {
	if layout == nil {
		layout = VBox{Gap: 4, Padding: 4}
	}
	return &Panel{
		widgetBase: newWidgetBase(),
		layout:     layout,
		background: gfx.LightGray,
	}
}

// SetTitle draws the panel as a titled group box.
func (p *Panel) SetTitle(t string) {
	if p.title == t {
		return
	}
	p.title = t
	p.border = t != ""
	p.Invalidate()
}

// Title returns the panel title.
func (p *Panel) Title() string { return p.title }

// SetBackground changes the fill color.
func (p *Panel) SetBackground(c gfx.Color) {
	if p.background == c {
		return
	}
	p.background = c
	p.Invalidate()
}

// Add appends children and relayouts.
func (p *Panel) Add(ws ...Widget) {
	p.children = append(p.children, ws...)
	if p.display != nil {
		for _, w := range ws {
			attachTree(w, p.display)
		}
	}
	p.Relayout()
}

// Children implements Widget.
func (p *Panel) Children() []Widget { return p.children }

// contentRect is the area available to children (inside title/border).
func (p *Panel) contentRect() gfx.Rect {
	r := p.bounds
	if p.border {
		r = r.Inset(2)
		r.Y += gfx.GlyphH
		r.H -= gfx.GlyphH
	}
	return r
}

// Relayout re-runs the layout over current bounds and repaints.
func (p *Panel) Relayout() {
	p.layout.Arrange(p.contentRect(), p.children)
	p.Invalidate()
}

// SetBounds implements Widget; it also re-arranges children.
func (p *Panel) SetBounds(r gfx.Rect) {
	p.widgetBase.SetBounds(r)
	p.layout.Arrange(p.contentRect(), p.children)
}

// PreferredSize implements Widget.
func (p *Panel) PreferredSize() (int, int) {
	w, h := p.layout.Preferred(p.children)
	if p.border {
		w += 4
		h += 4 + gfx.GlyphH
	}
	return w, h
}

// Paint implements Widget.
func (p *Panel) Paint(g gfx.Painter) {
	g.Fill(p.bounds, p.background)
	if p.border {
		box := p.bounds
		box.Y += gfx.GlyphH / 2
		box.H -= gfx.GlyphH / 2
		g.Border(box, gfx.DarkGray)
		if p.title != "" {
			tw := gfx.TextWidth(p.title)
			tx := p.bounds.X + 8
			g.Fill(gfx.R(tx-2, p.bounds.Y, tw+4, gfx.GlyphH), p.background)
			g.DrawText(tx, p.bounds.Y, p.title, gfx.Black)
		}
	}
}

// attach implements Widget, wiring the whole subtree.
func (p *Panel) attach(d *Display) {
	p.widgetBase.attach(d)
	for _, c := range p.children {
		attachTree(c, d)
	}
}
