// Package havi starts a dispatcher goroutine per home, and a ticker that
// needs one to drain it, which the session-path rules refuse.
package havi

import "time"

func newDispatcher(run func()) { go run() }

func newClock() <-chan time.Time { return time.NewTicker(time.Second).C }
