// Package support is test support; TESTONLY.allow names the whole package.
package support

// Helper has no caller at all.
func Helper() {}

// Options is a knob set no caller outside the package sets, exempt with
// the package.
type Options struct{ Verbose bool }
