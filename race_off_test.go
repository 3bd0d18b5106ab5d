//go:build !race

package crac

const raceEnabled = false
