package main

import (
	"errors"
	"fmt"
	"time"

	"matscale"
	"matscale/internal/matrix"
)

// hostN is the host-mul operand size: three 8 MiB matrices, well beyond
// a per-core L2.
const hostN = 1024

// hostMul loops matscale.HostMul on one pair of seeded operands with the
// default worker count, checking every product bit for bit against the
// serial kernel's.
type hostMul struct {
	a, b, ref *matrix.Dense
}

func (h *hostMul) clients() int { return 1 }
func (h *hostMul) stride() int  { return 1 }

func (h *hostMul) setup(seed uint64) error {
	// The golden product checks the kernel against committed bits on
	// seed-independent inputs.
	g, err := matscale.HostMul(matrix.Random(hostN, hostN, 1), matrix.Random(hostN, hostN, 2))
	if err != nil {
		return err
	}
	if err := checkDigest("host-mul golden product", matrixBytes(g), goldenHostMul); err != nil {
		return err
	}
	h.a = matrix.Random(hostN, hostN, 2*seed)
	h.b = matrix.Random(hostN, hostN, 2*seed+1)
	h.ref = matrix.Mul(h.a, h.b)
	_, err = h.op(0, nil, 0) // warm-up
	return err
}

func (h *hostMul) op(_ int, tr *tracer, opID int64) (time.Duration, error) {
	root := tr.begin("op host-mul", "", 0, opID, 0)
	t0 := time.Now()
	id := tr.begin("matscale.HostMul", fmt.Sprintf("%dx%d", hostN, hostN), root, opID, 0)
	c, err := matscale.HostMul(h.a, h.b)
	tr.end(id)
	lat := time.Since(t0)
	tr.end(root)
	if err != nil {
		return lat, err
	}
	if !sameBits(c, h.ref) {
		return lat, errors.New("host-mul: product differs from the serial reference")
	}
	return lat, nil
}

func (h *hostMul) verify() error { return nil }
func (h *hostMul) close()        { *h = hostMul{} }
