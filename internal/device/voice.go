package device

import (
	"strings"
	"sync/atomic"

	"uniint/internal/core"
	"uniint/internal/rfb"
)

// VoiceInput is the hands-free input device of the paper's kitchen
// scenario: "if a user is cooking a dish, s/he likes to control appliances
// via voices." Utterances are recognized against a small command grammar
// and translated into universal keyboard navigation.
//
// Real speech DSP is a hardware/data gate; the simulator consumes text
// transcripts, which exercises the same recognition-grammar → universal
// event pipeline (see the package comment in device.go).
type VoiceInput struct {
	id         string
	em         *emitter
	recognized atomic.Int64
	rejected   atomic.Int64
}

var _ core.InputDevice = (*VoiceInput)(nil)

// NewVoiceInput creates a voice input simulator.
func NewVoiceInput(id string) *VoiceInput {
	return &VoiceInput{id: id, em: newEmitter(32)}
}

// ID implements core.InputDevice.
func (v *VoiceInput) ID() string { return v.id }

// Class implements core.InputDevice.
func (v *VoiceInput) Class() string { return "voice" }

// InputPlugin implements core.InputDevice.
func (v *VoiceInput) InputPlugin() core.InputPlugin {
	return &voiceInputPlugin{dev: v}
}

// Events implements core.InputDevice.
func (v *VoiceInput) Events() <-chan core.RawEvent { return v.em.events() }

// Close shuts the device down.
func (v *VoiceInput) Close() { v.em.close() }

// Recognized reports utterances the grammar accepted.
func (v *VoiceInput) Recognized() int64 { return v.recognized.Load() }

// Rejected reports utterances outside the grammar.
func (v *VoiceInput) Rejected() int64 { return v.rejected.Load() }

// Say simulates the user speaking a sentence.
func (v *VoiceInput) Say(utterance string) {
	v.em.emit(core.RawEvent{Kind: core.EvUtterance, Code: utterance})
}

// voiceCommand pairs a grammar phrase set with its key output.
type voiceCommand struct {
	phrases []string
	keys    []uint32
}

// voiceGrammar is the recognition grammar: keyword-spotted phrases mapped
// to universal keyboard navigation. Longer phrases match first.
var voiceGrammar = []voiceCommand{
	{[]string{"move down", "next control", "next"}, []uint32{rfb.KeyTab}},
	{[]string{"move up", "previous control", "previous", "back"}, []uint32{rfb.KeyUp}},
	{[]string{"turn it up", "increase", "more", "right"}, []uint32{rfb.KeyRight}},
	{[]string{"turn it down", "decrease", "less", "left"}, []uint32{rfb.KeyLeft}},
	{[]string{"select", "okay", "press", "push", "activate", "toggle"}, []uint32{rfb.KeyReturn}},
	{[]string{"escape", "cancel"}, []uint32{rfb.KeyEscape}},
}

// RecognizeUtterance applies the grammar to a transcript, returning the
// key sequence and whether anything matched. It is exported so experiment
// E10 can benchmark the recognizer in isolation.
func RecognizeUtterance(utterance string) ([]uint32, bool) {
	text := strings.ToLower(strings.TrimSpace(utterance))
	if text == "" {
		return nil, false
	}
	// Repetition suffix: "... twice"/"... three times" repeats the command.
	repeat := 1
	switch {
	case strings.HasSuffix(text, " twice"):
		repeat, text = 2, strings.TrimSuffix(text, " twice")
	case strings.HasSuffix(text, " three times"):
		repeat, text = 3, strings.TrimSuffix(text, " three times")
	}
	for _, cmd := range voiceGrammar {
		for _, p := range cmd.phrases {
			if containsPhrase(text, p) {
				out := make([]uint32, 0, len(cmd.keys)*repeat)
				for i := 0; i < repeat; i++ {
					out = append(out, cmd.keys...)
				}
				return out, true
			}
		}
	}
	return nil, false
}

// containsPhrase reports whether phrase appears in text on word
// boundaries (keyword spotting, not substring matching — "pressure" must
// not trigger "press").
func containsPhrase(text, phrase string) bool {
	tw := strings.Fields(text)
	pw := strings.Fields(phrase)
	if len(pw) == 0 || len(pw) > len(tw) {
		return false
	}
	for i := 0; i+len(pw) <= len(tw); i++ {
		match := true
		for j, w := range pw {
			if tw[i+j] != w {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// voiceInputPlugin runs the grammar and emits key taps.
type voiceInputPlugin struct {
	dev *VoiceInput
}

var _ core.InputPlugin = (*voiceInputPlugin)(nil)

func (pl *voiceInputPlugin) Name() string { return "voice-grammar" }

func (pl *voiceInputPlugin) Bind(int, int) {}

func (pl *voiceInputPlugin) Translate(ev core.RawEvent) []core.UniEvent {
	if ev.Kind != core.EvUtterance {
		return nil
	}
	keys, ok := RecognizeUtterance(ev.Code)
	if !ok {
		pl.dev.rejected.Add(1)
		return nil
	}
	pl.dev.recognized.Add(1)
	out := make([]core.UniEvent, 0, len(keys)*2)
	for _, k := range keys {
		out = append(out, core.KeyTap(k)...)
	}
	return out
}
