// Package fixture is the root package of the unused check's fixture
// module: its exported API is a root.
package fixture

import "fixture/internal/a"

// Thing aliases an internal type, so every method of a.T is API.
type Thing = a.T

// Area is the API entry point that reaches the live code.
func Area() float64 { return a.Live() }
