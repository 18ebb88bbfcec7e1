//go:build !linux

package setsystem

// madviseData is a silent no-op off Linux: hints are optional by
// definition, so Advise stays best-effort.
func madviseData(_ []byte, _ Advice) error { return nil }
