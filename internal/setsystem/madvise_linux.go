package setsystem

import "syscall"

// madviseData forwards an access-pattern hint for the mapped pages. Only
// Linux gets the real hint: Go's syscall package defines Madvise on no
// other OS, so every other build uses the no-op in madvise_other.go.
func madviseData(data []byte, a Advice) error {
	if len(data) == 0 {
		return nil
	}
	adv := syscall.MADV_NORMAL
	switch a {
	case AdviseSequential:
		adv = syscall.MADV_SEQUENTIAL
	case AdviseWillNeed:
		adv = syscall.MADV_WILLNEED
	}
	return syscall.Madvise(data, adv)
}
