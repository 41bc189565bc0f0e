package uniserver

import "testing"

func TestAllowed(t *testing.T) { Allowed() }
