package server

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"matscale/internal/sweep"
)

// Checkpoint persistence. A suspended job is the only server state
// worth surviving a restart: everything else is either in flight
// (running jobs drain on Shutdown) or derivable (terminal results
// re-simulate byte-identically from their specs). Each suspended job
// owns one file, <CheckpointDir>/<id>.ckpt, holding its encoded
// sweep.Checkpoint; the integrity hash of the container makes a
// torn or tampered file a typed startup error instead of silent
// corruption.

// ckptExt is the checkpoint file suffix; files without it are ignored
// by the restore scan. tmpExt marks a checkpoint still being written:
// one left behind by a crash before its rename is deleted at startup.
const (
	ckptExt = ".ckpt"
	tmpExt  = ".tmp"
)

// ckptPath returns the checkpoint file for a job ID.
func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.CheckpointDir, id+ckptExt)
}

// persistCheckpoint writes a suspended job's checkpoint durably: the
// bytes go to a temp file, which is synced before it lands under the
// final name via rename, and the directory is synced after, so a crash
// at any point leaves either the previous file or the complete new one
// (plus, at worst, a temp file the next startup deletes). A no-op
// without a CheckpointDir.
func (s *Server) persistCheckpoint(id string, ck *sweep.Checkpoint) error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	data, err := ck.Encode()
	if err == nil {
		err = writeDurable(s.ckptPath(id), data)
	}
	if err != nil {
		return fmt.Errorf("server: persist checkpoint for %s: %w", id, err)
	}
	return nil
}

// writeDurable replaces path with data through a synced temp file and
// a rename, then syncs the parent directory so the rename itself
// survives a crash.
func writeDurable(path string, data []byte) error {
	tmp := path + tmpExt
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best-effort: the next startup deletes it too
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeCheckpoint deletes a job's persisted checkpoint once it is no
// longer resumable (terminal state). Best-effort: a leftover file only
// costs a stale suspended job on the next restart, which the operator
// can cancel.
func (s *Server) removeCheckpoint(id string) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(s.ckptPath(id))
}

// restoreCheckpoints scans CheckpointDir (creating it if absent) and
// rebuilds each persisted checkpoint as a suspended job under its
// original ID, advancing the ID counter past the restored ones so new
// submissions never collide. Temp files a crash left mid-write are
// deleted: their checkpoint never landed. Called by New before the
// workers start; a checkpoint that fails to decode or validate aborts
// construction with a typed error naming the file — the operator
// decides whether to remove it.
func (s *Server) restoreCheckpoints() error {
	if s.cfg.CheckpointDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(s.cfg.CheckpointDir) // sorted by name
	if err != nil {
		return fmt.Errorf("server: checkpoint dir: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if !ent.IsDir() && strings.HasSuffix(name, ckptExt+tmpExt) {
			if err := os.Remove(filepath.Join(s.cfg.CheckpointDir, name)); err != nil {
				return fmt.Errorf("server: remove leftover %s: %w", name, err)
			}
			continue
		}
		if ent.IsDir() || !strings.HasSuffix(name, ckptExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.CheckpointDir, name))
		if err != nil {
			return fmt.Errorf("server: restore %s: %w", name, err)
		}
		ck, err := sweep.DecodeCheckpoint(data)
		if err != nil {
			return fmt.Errorf("server: restore %s: %w", name, err)
		}
		cells, err := ck.Spec.Cells()
		if err != nil {
			return fmt.Errorf("server: restore %s: %w", name, err)
		}
		id := strings.TrimSuffix(name, ckptExt)
		sp := ck.Spec
		j := &Job{
			id:         id,
			spec:       &sp,
			backend:    ck.Backend,
			total:      len(cells),
			state:      StateSuspended,
			done:       len(ck.Done),
			checkpoint: ck,
			finished:   make(chan struct{}),
			subs:       map[int]chan Event{},
		}
		s.jobs[id] = j
		s.suspended++
		if rest, ok := strings.CutPrefix(id, "job-"); ok {
			if n, err := strconv.Atoi(rest); err == nil && n > s.nextID {
				s.nextID = n
			}
		}
	}
	return nil
}
