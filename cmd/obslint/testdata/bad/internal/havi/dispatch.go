// Package havi starts a dispatcher goroutine per home, which the
// session-path rule refuses.
package havi

func newDispatcher(run func()) { go run() }
