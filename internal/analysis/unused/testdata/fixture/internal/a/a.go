package a

// Shape is called through the interface only.
type Shape interface{ Area() float64 }

// Sq's Area is reached only by satisfying Shape.
type Sq struct{ Side float64 }

func (s Sq) Area() float64 { return s.Side * s.Side }

// Live is reached from the root package's API.
func Live() float64 {
	var s Shape = Sq{Side: 2}
	return s.Area()
}

// T is aliased by the root package; its methods are API.
type T struct{}

func (T) AliasMethod() int { return 1 }

func deadUnexported() {} // want "fixture/internal/a.deadUnexported"

// DeadExported is exported but nothing outside tests calls it.
func DeadExported() {} // want "fixture/internal/a.DeadExported"

// OnlyTested is called by its own test and nothing else.
func OnlyTested() int { return 2 } // want "fixture/internal/a.OnlyTested"

// NestedOnly is called only from the nested module.
func NestedOnly() int { return 3 }

// Kept is unreached but listed as a keeper, and so is what it uses.
func Kept() int { return keptHelper() }

func keptHelper() int { return 4 }
