package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"codesignvm/internal/obs"
)

// State is a job's position in its lifecycle. The terminal states are
// StateDone, StateFailed and StateCancelled; docs/api.md draws the
// full state machine.
type State int

// Job lifecycle states.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

var stateNames = [...]string{"queued", "running", "done", "failed", "cancelled"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state?"
}

// MarshalJSON renders the state as its lowercase name.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the lowercase name back, so API clients can
// decode Status responses into the same types the server serves.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stateNames {
		if n == name {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("jobs: unknown state %q", name)
}

// Job is one submitted workload moving through the manager. All
// fields are guarded by mu except the immutable identity fields set
// at submission (id, key, spec, created, obsv, done).
type Job struct {
	id      string
	key     string
	spec    Spec
	created time.Time
	// obsv is the job's private observer: its per-run counters and
	// recorder set feed the job's progress view without interleaving
	// with other jobs (the manager's process observer carries only the
	// jobs.* service metrics).
	obsv *obs.Observer
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu        sync.Mutex
	state     State
	started   time.Time
	finished  time.Time
	result    string
	errText   string
	cancel    context.CancelFunc // set while running
	cancelled bool               // a Cancel call has been accepted
}

// ID returns the job's identifier ("j<seq>-<spec key prefix>").
func (j *Job) ID() string { return j.id }

// Spec returns the validated, default-filled spec the job runs.
func (j *Job) Spec() Spec { return j.spec }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the report text and error message; the report is
// non-empty only in StateDone.
func (j *Job) Result() (report, errText string, state State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.errText, j.state
}

// Status is one job's externally visible snapshot (the GET /jobs/{id}
// response body; docs/api.md documents every field).
type Status struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Created/Started/Finished are RFC 3339 submission, pickup and
	// completion times (empty until reached).
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Error is the failure (or cancellation) message in the failed and
	// cancelled states.
	Error string `json:"error,omitempty"`
	// ResultBytes is the report size, set in StateDone; fetch the body
	// from /jobs/{id}/result.
	ResultBytes int `json:"result_bytes,omitempty"`
	// Progress is the job's live execution view, fed from its private
	// observer: runs started/done, store hits/misses (dedupe visible
	// here), and per-run state from the PR-4 introspection machinery.
	Progress *obs.RunsStatus `json:"progress,omitempty"`
}

// Status snapshots the job. withRuns includes the per-run progress
// array (GET /jobs/{id}); the list endpoint omits it to stay compact.
func (j *Job) Status(withRuns bool) Status {
	j.mu.Lock()
	st := Status{
		ID:      j.id,
		Spec:    j.spec,
		State:   j.state,
		Created: j.created.UTC().Format(time.RFC3339Nano),
		Error:   j.errText,
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	st.ResultBytes = len(j.result)
	state := j.state
	j.mu.Unlock()

	// The observer has its own locking; never read it under j.mu.
	if state >= StateRunning {
		prog := j.obsv.Status(nil)
		if !withRuns {
			prog.Runs = nil
		}
		st.Progress = &prog
	}
	return st
}
