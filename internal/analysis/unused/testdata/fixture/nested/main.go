// Command nested lives in a nested module, a root of the check.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() { fmt.Println(a.NestedOnly()) }
