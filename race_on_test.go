//go:build race

package crac

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a share of the buffers put back
// on purpose, so heap accounting no longer measures the program.
const raceEnabled = true
