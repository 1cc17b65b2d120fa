//go:build !amd64 || purego

package matrix

import "testing"

// forEachDispatch runs f on the one kernel this build has.
func forEachDispatch(t *testing.T, f func(t *testing.T)) {
	t.Run("portable", f)
}
