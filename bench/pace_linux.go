package main

import (
	"syscall"
	"time"
)

// prSetTimerslack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerslack = 29

// sleepUntil blocks until due, good to a few tens of microseconds.
// time.Sleep cannot pace a 4000/s sender: an idle Go scheduler waits in
// epoll, whose timeout is in whole milliseconds, and the kernel adds
// 50 µs of timer slack to every thread by default. So this sleeps in
// nanosleep on whatever thread the goroutine is on, with that thread's
// slack turned down first. The goroutine is not pinned to the thread:
// a pinned sender pays a thread hand-off per request, which more than
// doubled the batch-of-1 round trip.
func sleepUntil(due time.Time) {
	// Best effort: with the default slack the sender is merely 50 µs
	// later, which the lateness metrics then show.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // a signal may end it early; the loop sleeps the rest
	}
}
