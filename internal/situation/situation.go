// Package situation implements the user-context side of the paper's second
// characteristic: "suitable input/output interaction devices [are chosen]
// according to a user's preference. Also, these interaction devices are
// dynamically changed according to the user's current situation."
//
// A Situation models what the prototype's sensors would report (location,
// activity, hands busy, seated); preference Rules map situations to
// preferred device classes; the Engine evaluates the rules whenever the
// situation changes and re-selects devices on the UniInt proxy.
package situation

import (
	"sort"
	"sync"
)

// Situation is the user's current context.
type Situation struct {
	// Location is the room: "kitchen", "livingroom", "office", …
	Location string
	// Activity is what the user is doing: "cooking", "watching_tv",
	// "idle", …
	Activity string
	// HandsBusy reports whether both hands are occupied (the paper's
	// trigger for switching to voice input).
	HandsBusy bool
	// Seated reports whether the user is sitting (sofa scenario).
	Seated bool
}

// Condition matches situations; zero-valued fields match anything.
type Condition struct {
	Location  string
	Activity  string
	HandsBusy *bool
	Seated    *bool
}

// Matches reports whether s satisfies every non-wildcard term.
func (c Condition) Matches(s Situation) bool {
	if c.Location != "" && c.Location != s.Location {
		return false
	}
	if c.Activity != "" && c.Activity != s.Activity {
		return false
	}
	if c.HandsBusy != nil && *c.HandsBusy != s.HandsBusy {
		return false
	}
	if c.Seated != nil && *c.Seated != s.Seated {
		return false
	}
	return true
}

// Bool returns a pointer for use in Condition literals.
func Bool(b bool) *bool { return &b }

// Rule is one user preference: when the condition holds, prefer these
// device classes. Input and output are decided independently (paper
// characteristic C1): a rule may set either or both.
type Rule struct {
	Name        string
	When        Condition
	InputClass  string // "" = this rule does not constrain input
	OutputClass string // "" = this rule does not constrain output
	Priority    int    // higher wins; ties resolve by declaration order
}

// Selector is the device-switching surface the engine drives; the UniInt
// proxy implements it.
type Selector interface {
	SelectInputByClass(class string) error
	SelectOutputByClass(class string) error
}

// Decision records one evaluation: which rules chose the input and output
// and whether the switches succeeded. A non-nil InputErr/OutputErr with a
// non-empty class means a higher-priority preference failed (device not
// attached) and the engine fell back; the class fields are authoritative.
type Decision struct {
	Situation   Situation
	InputRule   string
	InputClass  string
	InputErr    error
	OutputRule  string
	OutputClass string
	OutputErr   error
}

// Engine evaluates preference rules against the current situation and
// drives a Selector.
type Engine struct {
	sel Selector

	mu      sync.Mutex
	rules   []Rule // sorted by priority, descending, stable
	history []Decision
}

// NewEngine creates an engine over the given rules (evaluated by
// descending priority).
func NewEngine(sel Selector, rules []Rule) *Engine {
	sorted := make([]Rule, len(rules))
	copy(sorted, rules)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Priority > sorted[j].Priority
	})
	return &Engine{sel: sel, rules: sorted}
}

// History returns all decisions made so far.
func (e *Engine) History() []Decision {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Decision, len(e.history))
	copy(out, e.history)
	return out
}

// SetSituation evaluates the rules against the new situation and
// switches devices. It returns the decision taken. Selection failures
// (e.g. no device of the preferred class is attached) are recorded in the
// decision; the engine then falls through to the next matching rule for
// that slot, so the user always keeps a working device when one exists.
func (e *Engine) SetSituation(s Situation) Decision {
	e.mu.Lock()
	rules := e.rules
	e.mu.Unlock()

	d := Decision{Situation: s}

	for _, r := range rules {
		if d.InputClass != "" || r.InputClass == "" || !r.When.Matches(s) {
			continue
		}
		err := e.sel.SelectInputByClass(r.InputClass)
		if err != nil {
			if d.InputErr == nil {
				d.InputErr = err // remember the first failure
			}
			continue
		}
		d.InputRule, d.InputClass = r.Name, r.InputClass
	}
	for _, r := range rules {
		if d.OutputClass != "" || r.OutputClass == "" || !r.When.Matches(s) {
			continue
		}
		err := e.sel.SelectOutputByClass(r.OutputClass)
		if err != nil {
			if d.OutputErr == nil {
				d.OutputErr = err
			}
			continue
		}
		d.OutputRule, d.OutputClass = r.Name, r.OutputClass
	}

	e.mu.Lock()
	e.history = append(e.history, d)
	e.mu.Unlock()
	return d
}

// DefaultRules encodes the paper's motivating scenarios:
//
//   - both hands busy (cooking) → voice input (paper §1 and §2.1)
//   - watching TV from the sofa → remote controller + TV display
//   - in the kitchen → phone keypad in hand, phone display
//   - in the living room → prefer the TV screen as output
//   - otherwise → the PDA for both directions
func DefaultRules() []Rule {
	return []Rule{
		{Name: "hands-busy-voice", Priority: 100,
			When:       Condition{HandsBusy: Bool(true)},
			InputClass: "voice"},
		{Name: "sofa-remote", Priority: 90,
			When:        Condition{Activity: "watching_tv", Seated: Bool(true)},
			InputClass:  "remote",
			OutputClass: "tv"},
		{Name: "kitchen-phone", Priority: 50,
			When:        Condition{Location: "kitchen"},
			InputClass:  "phone",
			OutputClass: "phone"},
		{Name: "livingroom-tv", Priority: 40,
			When:        Condition{Location: "livingroom"},
			OutputClass: "tv"},
		{Name: "default-pda", Priority: 0,
			InputClass:  "pda",
			OutputClass: "pda"},
	}
}
