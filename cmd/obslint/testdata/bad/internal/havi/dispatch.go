// Package havi starts a dispatcher goroutine per home, a ticker that needs
// one to drain it, and a sleeping worker naming no joiner, which the
// session-path rules refuse. It sets one of uniserver's knobs.
package havi

import "time"
import "fixture/internal/uniserver"

var serverOptions = uniserver.Options{Set: 1}

func newDispatcher(run func()) { go run() }

func newClock() <-chan time.Time { return time.NewTicker(time.Second).C }

// goroutine-ok: one per home.
func newWorker(run func()) { go run(); time.Sleep(time.Millisecond) }
