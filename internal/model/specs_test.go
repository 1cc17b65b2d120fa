package model_test

import (
	"strings"
	"testing"

	"matscale/internal/core"
	"matscale/internal/model"
)

// TestSpecsShape checks that exactly the four algorithms of Table 1
// carry a complete Table 1 entry in the formulation table, in Table 1's
// order, and that only DNS has an efficiency ceiling. The entries live
// in internal/core's table, so this test reads them from outside the
// package.
func TestSpecsShape(t *testing.T) {
	var table1 []string
	for _, f := range core.Formulations {
		s := f.Table1
		if s == nil {
			continue
		}
		table1 = append(table1, f.Key+"="+string(s.Letter))
		if s.To == nil || s.Overhead == "" || s.Applicable == nil || s.Range == "" ||
			s.Concurrency == nil || s.Isoefficiency == "" {
			t.Errorf("%s: incomplete Table 1 entry", f.Name)
		}
		if (s.Ceiling != nil) != (f.Key == "dns") {
			t.Errorf("%s: has an efficiency ceiling = %v, want it on DNS alone", f.Name, s.Ceiling != nil)
		}
	}
	if got, want := strings.Join(table1, ","), "berntsen=b,cannon=c,gk=a,dns=d"; got != want {
		t.Errorf("Table 1 rows = %s, want %s", got, want)
	}
}

// TestExactFormsReduceToSerialAtP1 checks that the exact form of every
// check in the formulation table is the serial time n³ on one
// processor. DNS's form needs its block grid (TestExactDNSReducesToSerial).
func TestExactFormsReduceToSerialAtP1(t *testing.T) {
	for _, f := range core.Formulations {
		for _, c := range f.Checks {
			if c.Tp == nil || f.NStep == nil {
				continue
			}
			if got := c.Tp(model.Params{Ts: 17, Tw: 3}, 12, 1); got != 12*12*12 {
				t.Errorf("%s %s at p=1: Tp = %v, want 1728 (pure serial)", f.Name, c.Eq, got)
			}
		}
	}
}
