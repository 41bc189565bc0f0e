// Package support is test support; TESTONLY.allow names the whole package.
package support

// Helper has no caller at all.
func Helper() {}
