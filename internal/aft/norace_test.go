//go:build !race

package aft

const raceEnabled = false
