package situation

import (
	"errors"
	"sync"
	"testing"
)

// fakeSelector records selections and can refuse specific classes.
type fakeSelector struct {
	mu      sync.Mutex
	inputs  []string
	outputs []string
	refuse  map[string]bool
}

var errNoDevice = errors.New("no such device")

func (f *fakeSelector) SelectInputByClass(class string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuse[class] {
		return errNoDevice
	}
	f.inputs = append(f.inputs, class)
	return nil
}

func (f *fakeSelector) SelectOutputByClass(class string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuse[class] {
		return errNoDevice
	}
	f.outputs = append(f.outputs, class)
	return nil
}

func (f *fakeSelector) lastInput() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.inputs) == 0 {
		return ""
	}
	return f.inputs[len(f.inputs)-1]
}

func (f *fakeSelector) lastOutput() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.outputs) == 0 {
		return ""
	}
	return f.outputs[len(f.outputs)-1]
}

func TestConditionMatching(t *testing.T) {
	tests := []struct {
		name string
		c    Condition
		s    Situation
		want bool
	}{
		{"empty matches anything", Condition{}, Situation{Location: "kitchen"}, true},
		{"location match", Condition{Location: "kitchen"}, Situation{Location: "kitchen"}, true},
		{"location mismatch", Condition{Location: "kitchen"}, Situation{Location: "office"}, false},
		{"hands busy true", Condition{HandsBusy: Bool(true)}, Situation{HandsBusy: true}, true},
		{"hands busy false required", Condition{HandsBusy: Bool(false)}, Situation{HandsBusy: true}, false},
		{"combined", Condition{Location: "sofa", Seated: Bool(true)},
			Situation{Location: "sofa", Seated: true}, true},
		{"combined partial fail", Condition{Location: "sofa", Seated: Bool(true)},
			Situation{Location: "sofa"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Matches(tt.s); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDefaultRulesScenarios(t *testing.T) {
	tests := []struct {
		name    string
		s       Situation
		wantIn  string
		wantOut string
	}{
		{"cooking with hands busy", Situation{Location: "kitchen", Activity: "cooking", HandsBusy: true},
			"voice", "phone"},
		{"kitchen hands free", Situation{Location: "kitchen"},
			"phone", "phone"},
		{"sofa tv", Situation{Location: "livingroom", Activity: "watching_tv", Seated: true},
			"remote", "tv"},
		{"living room standing", Situation{Location: "livingroom"},
			"pda", "tv"},
		{"office", Situation{Location: "office"},
			"pda", "pda"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sel := &fakeSelector{}
			e := NewEngine(sel, DefaultRules())
			d := e.SetSituation(tt.s)
			if d.InputClass != tt.wantIn || sel.lastInput() != tt.wantIn {
				t.Errorf("input = %q (rule %q), want %q", d.InputClass, d.InputRule, tt.wantIn)
			}
			if d.OutputClass != tt.wantOut || sel.lastOutput() != tt.wantOut {
				t.Errorf("output = %q (rule %q), want %q", d.OutputClass, d.OutputRule, tt.wantOut)
			}
		})
	}
}

func TestFallthroughWhenDeviceMissing(t *testing.T) {
	// Voice preferred but no voice device attached: the engine must fall
	// through to the next matching rule instead of leaving no input.
	sel := &fakeSelector{refuse: map[string]bool{"voice": true}}
	e := NewEngine(sel, DefaultRules())
	d := e.SetSituation(Situation{Location: "kitchen", HandsBusy: true})
	if d.InputClass != "phone" {
		t.Errorf("fallback input = %q", d.InputClass)
	}
	if d.InputErr == nil {
		t.Error("first failure should be recorded")
	}
	if !errors.Is(d.InputErr, errNoDevice) {
		t.Errorf("recorded err = %v", d.InputErr)
	}
}

func TestPriorityOrderingAndStability(t *testing.T) {
	sel := &fakeSelector{}
	rules := []Rule{
		{Name: "low", Priority: 1, InputClass: "pda"},
		{Name: "high", Priority: 10, InputClass: "voice"},
		{Name: "high-second", Priority: 10, InputClass: "remote"},
	}
	e := NewEngine(sel, rules)
	d := e.SetSituation(Situation{})
	if d.InputRule != "high" {
		t.Errorf("winning rule = %q (ties must resolve by declaration order)", d.InputRule)
	}
	// Engine must not have mutated the caller's slice.
	if rules[0].Name != "low" {
		t.Error("caller's rule slice reordered")
	}
}

func TestHistoryAccumulates(t *testing.T) {
	sel := &fakeSelector{}
	e := NewEngine(sel, DefaultRules())
	e.SetSituation(Situation{Location: "kitchen"})
	e.SetSituation(Situation{Location: "office"})
	h := e.History()
	if len(h) != 2 {
		t.Fatalf("history = %d", len(h))
	}
	if h[0].Situation.Location != "kitchen" || h[1].Situation.Location != "office" {
		t.Errorf("history order wrong: %+v", h)
	}
}

func TestRuleWithoutSlotLeavesOtherDecisionsAlone(t *testing.T) {
	// A rule constraining only output must not block input fallthrough.
	sel := &fakeSelector{}
	rules := []Rule{
		{Name: "out-only", Priority: 10, OutputClass: "tv"},
		{Name: "in-only", Priority: 5, InputClass: "remote"},
	}
	e := NewEngine(sel, rules)
	d := e.SetSituation(Situation{})
	if d.InputClass != "remote" || d.OutputClass != "tv" {
		t.Errorf("decision = %+v", d)
	}
	if d.InputRule != "in-only" || d.OutputRule != "out-only" {
		t.Errorf("rules = %q/%q", d.InputRule, d.OutputRule)
	}
}

func TestNoMatchingRuleLeavesSelectionEmpty(t *testing.T) {
	sel := &fakeSelector{}
	rules := []Rule{{Name: "kitchen-only", When: Condition{Location: "kitchen"}, InputClass: "phone"}}
	e := NewEngine(sel, rules)
	d := e.SetSituation(Situation{Location: "office"})
	if d.InputClass != "" || d.InputRule != "" {
		t.Errorf("decision = %+v", d)
	}
	if len(sel.inputs) != 0 {
		t.Error("selector called despite no matching rule")
	}
}
