// Command demo keeps FromExample alive: examples are callers.
package main

import "fixture/internal/uniserver"

func main() { uniserver.FromExample() }
