//go:build race

package main

const raceSlowdown = 10
