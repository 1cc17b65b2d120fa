// Package simulator stubs the pooled messaging surface of the real
// simulator package: same import path, same method names and consumed
// argument positions, no behavior. Fixtures type-check against it so
// ownflow resolves call sites exactly as it does in the real tree.
package simulator

// Proc mirrors the messaging methods of simulator.Proc.
type Proc struct{}

// Send copies data; ownership stays with the caller.
func (p *Proc) Send(dst, tag int, data []float64) {}

// SendOwned transfers ownership of data to the runtime.
func (p *Proc) SendOwned(dst, tag int, data []float64) {}

// SendFreeOwned transfers ownership of data to the runtime.
func (p *Proc) SendFreeOwned(dst, tag int, data []float64) {}

// SendNeighborOwned transfers ownership of data to the runtime.
func (p *Proc) SendNeighborOwned(dst, tag int, data []float64) {}

// ExchangeNeighbor copies data and returns a caller-owned buffer.
func (p *Proc) ExchangeNeighbor(partner, tag int, data []float64) []float64 { return nil }

// Recv returns a caller-owned buffer.
func (p *Proc) Recv(src, tag int) []float64 { return nil }

// Recycle returns buf to the pool, consuming it.
func (p *Proc) Recycle(buf []float64) {}

// GetBuf returns a caller-owned pooled buffer of length n.
func (p *Proc) GetBuf(n int) []float64 { return make([]float64, n) }

// PutBuf returns b to the pool, consuming it.
func (p *Proc) PutBuf(b []float64) {}
