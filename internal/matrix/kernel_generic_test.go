//go:build !amd64 || purego

package matrix

import "testing"

// withEachTarget calls run on the one tile family this build has.
func withEachTarget(_ testing.TB, run func(name string)) {
	run("portable")
}
