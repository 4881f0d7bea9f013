//go:build race

package main

// The race detector's runtime allocates on its own, so allocation
// counts are not compared under -race.
func init() { raceBuild = true }
