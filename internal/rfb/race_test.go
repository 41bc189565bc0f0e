//go:build race

package rfb

// raceEnabled reports a race-detector build, under which sync.Pool drops
// pooled items on purpose, so allocation counts are not the production
// path's.
const raceEnabled = true
