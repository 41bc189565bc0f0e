package uniserver

import "testing"

func TestOnlyTests(t *testing.T) { OnlyTests() }
