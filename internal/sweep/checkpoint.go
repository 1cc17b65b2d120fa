package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"

	"matscale/internal/checkpoint"
	"matscale/internal/machine"
)

// Cell-boundary checkpoints. A sweep's cells are independent pure
// functions of their canonical keys, so the sweep engine has a natural
// consistent cut of its own: between cells. Suspension lets in-flight
// cells finish (a cell is the granularity — the events backend's
// mid-run cuts are a per-cell concern, see internal/simulator), then
// snapshots the completed CellResults keyed by cell identity. Resuming
// seeds those results back in and simulates only the remainder;
// because every cell is deterministic, the resumed Result renders
// byte-identically to an uninterrupted run's. This layer never looks
// inside a simulation, so it works on either engine.

// sweepSnapKind and sweepSnapVersion identify the sweep checkpoint
// payload inside the container. The payload is JSON (the sweep layer
// is not hot; self-description beats compactness here), versioned so a
// schema change is a typed rejection, not a misdecode.
const (
	sweepSnapKind    = "matscale/sweep-job"
	sweepSnapVersion = 1
)

// Checkpoint is a suspended sweep: the spec, the backend it ran on,
// and the results of every cell that completed before the cut. It is
// the unit matscale-server persists for suspended jobs.
type Checkpoint struct {
	Spec    Spec
	Backend machine.Backend
	// Done holds completed cells in sweep cell order.
	Done []CellResult
}

// ckptPayload is the JSON schema of the checkpoint payload. Backend
// travels as its name so the bytes stay self-describing.
type ckptPayload struct {
	Spec    Spec         `json:"spec"`
	Backend string       `json:"backend"`
	Done    []CellResult `json:"done"`
}

// SuspendedError reports a sweep stopped on request (Options.Suspend).
// It is not a failure: the Checkpoint it carries resumes the sweep —
// in this process or another — with output byte-identical to never
// having stopped.
type SuspendedError struct {
	Checkpoint *Checkpoint
}

func (e *SuspendedError) Error() string {
	return fmt.Sprintf("sweep: suspended with %d cells done", len(e.Checkpoint.Done))
}

// CheckpointMismatchError reports a checkpoint that cannot seed the
// given run: a different spec or backend.
type CheckpointMismatchError struct {
	Reason string
}

func (e *CheckpointMismatchError) Error() string {
	return "sweep: checkpoint mismatch: " + e.Reason
}

// errSuspended is the sentinel a worker returns for a cell skipped by
// suspension; Run folds it into a SuspendedError.
var errSuspended = errors.New("sweep: suspended")

// Encode renders the checkpoint as a versioned, integrity-hashed
// container (see internal/checkpoint).
func (c *Checkpoint) Encode() ([]byte, error) {
	payload, err := json.Marshal(ckptPayload{
		Spec:    c.Spec,
		Backend: c.Backend.String(),
		Done:    c.Done,
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: encode checkpoint: %w", err)
	}
	s := &checkpoint.Snapshot{
		Kind:    sweepSnapKind,
		Version: sweepSnapVersion,
		Meta: map[string]string{
			"backend":    c.Backend.String(),
			"cells_done": strconv.Itoa(len(c.Done)),
		},
		Payload: payload,
	}
	return s.Encode(), nil
}

// DecodeCheckpoint parses and verifies an encoded sweep checkpoint:
// container integrity, kind and version, then the payload schema.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	s, err := checkpoint.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := s.Expect(sweepSnapKind, sweepSnapVersion); err != nil {
		return nil, err
	}
	var p ckptPayload
	if err := json.Unmarshal(s.Payload, &p); err != nil {
		return nil, fmt.Errorf("sweep: decode checkpoint payload: %w", err)
	}
	b, err := machine.ParseBackend(p.Backend)
	if err != nil {
		return nil, fmt.Errorf("sweep: decode checkpoint: %w", err)
	}
	if err := p.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint spec: %w", err)
	}
	return &Checkpoint{Spec: p.Spec, Backend: b, Done: p.Done}, nil
}

// validateResume checks a checkpoint against the run it is asked to
// seed. The spec and backend must match exactly: a checkpoint's cells
// are only reusable under the identical configuration.
func validateResume(ck *Checkpoint, s *Spec, backend machine.Backend) error {
	if !reflect.DeepEqual(ck.Spec, *s) {
		return &CheckpointMismatchError{Reason: "checkpoint was taken for a different spec"}
	}
	if ck.Backend != backend {
		return &CheckpointMismatchError{Reason: fmt.Sprintf(
			"checkpoint was taken on backend %q, resuming on %q", ck.Backend, backend)}
	}
	return nil
}
