//go:build race

package aft

const raceEnabled = true
