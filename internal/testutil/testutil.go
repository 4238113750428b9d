// Package testutil holds shared test helpers: condition polling
// (Eventually) to replace sleep-based waits, and a goroutine-leak check
// (NoLeaks) enforcing the "no fire-and-forget goroutines" convention of
// DESIGN.md §7.
package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Eventually polls cond every few milliseconds until it returns true or
// timeout elapses, then fails the test with the formatted message. It
// replaces sleep-loops: the test proceeds the moment the condition holds,
// and under -race load the deadline stretches instead of flaking.
func Eventually(t testing.TB, timeout time.Duration, cond func() bool, format string, args ...any) {
	t.Helper()
	if EventuallyTrue(timeout, cond) {
		return
	}
	t.Fatalf("condition not met within "+timeout.String()+": "+format, args...)
}

// EventuallyTrue is Eventually without the test dependency: it reports
// whether cond became true within timeout.
func EventuallyTrue(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return cond()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// NoLeaks registers a cleanup that fails the test if goroutines running
// this module's code outlive the test. Call it first in a test so the
// check runs after every other cleanup (t.Cleanup is LIFO). Lingering
// goroutines get a grace period to drain — shutdown is asynchronous —
// before the check dumps their stacks and fails.
func NoLeaks(t testing.TB) {
	t.Helper()
	t.Cleanup(func() {
		var stacks string
		ok := EventuallyTrue(5*time.Second, func() bool {
			stacks = moduleStacks()
			return stacks == ""
		})
		if !ok {
			t.Errorf("goroutines leaked past test end:\n%s", stacks)
		}
	})
}

// moduleStacks returns the stacks of goroutines currently executing this
// module's packages ("" when none). The current goroutine and pure
// stdlib/testing goroutines are excluded.
func moduleStacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var leaked []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(g, "webcluster/internal/") {
			continue
		}
		// The leak check itself and test-function frames are not leaks:
		// skip the first goroutine (the caller) and anything parked in
		// testing harness code.
		if strings.Contains(g, "webcluster/internal/testutil.moduleStacks") {
			continue
		}
		// A parent test waiting in t.Run for the subtest being checked.
		if _, frames, _ := strings.Cut(g, "\n"); strings.HasPrefix(frames, "testing.(*T).Run(") {
			continue
		}
		leaked = append(leaked, g)
	}
	return strings.Join(leaked, "\n\n")
}
