// Command tool is the fixture's production caller; see README.md.
package main

import "fixture/internal/uniserver"

func main() {
	uniserver.Used()
	uniserver.Measure(uniserver.Box{})
	_ = uniserver.Options{Depth: 1}
}
