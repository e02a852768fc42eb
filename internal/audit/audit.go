// Package audit is a runtime invariant auditor for the simulated cluster.
// The cluster hands it a Snapshot at every control period (and once more at
// the end of a run); the auditor checks the structural invariants that any
// correct scheduler must preserve under membership churn and fault
// injection:
//
//   - job conservation: every job that has arrived is in exactly one place
//     — completed, killed, resident on a workstation, blocked in the
//     pending queue, in the stranded-migration pool, frozen on the wire,
//     or inside a remote-submission flight — and the places sum to the
//     arrival count;
//   - no duplicated jobs: a job ID appears on at most one workstation and
//     in at most one of the waiting pools;
//   - per-node memory accounting: idle memory stays within [0, UserMB] and
//     the slot discipline (resident + held <= slots) holds;
//   - reservation/lease referential integrity: reserved workstations are
//     alive members (never removed), and removed workstations hold no
//     jobs, no migration holds, and no reservation;
//   - no events addressed to removed workstations after their removal
//     (checked over the structured trace at the end of a run).
//
// The auditor is pure bookkeeping over value types, so enabling it never
// perturbs the schedule; a violation is returned as an error for the run
// loop to fail on, keeping the offending virtual time in the message.
package audit

import (
	"fmt"
	"time"

	"vrcluster/internal/obs"
)

// NodeView is one workstation's audited state.
type NodeView struct {
	ID       int
	Resident []int // resident job IDs
	Held     int   // in-flight migration holds
	Reserved bool
	Down     bool
	Draining bool
	Removed  bool
	IdleMB   float64
	UserMB   float64
	Slots    int
}

// Snapshot is the cluster state the auditor checks, expressed entirely in
// value types so the audit layer cannot mutate the simulation. Check reads
// it and keeps no reference to its slices, so a caller may refill the same
// Snapshot for every check.
type Snapshot struct {
	Now time.Duration

	// Arrived counts jobs whose submission has fired; Done and Killed
	// count terminal jobs among them.
	Arrived int
	Done    int
	Killed  int

	// RemoteInFlight counts submissions inside their network latency
	// flight (dispatched but not yet admitted or requeued).
	RemoteInFlight int

	Pending  []int // job IDs blocked in the pending queue
	Stranded []int // job IDs in the stranded-migration pool
	Wire     []int // job IDs frozen in migration (on the wire or in backoff)

	Nodes []NodeView
}

// Violation is one invariant breach.
type Violation struct {
	At        time.Duration
	Invariant string
	Detail    string
}

// Error formats the violation for run-loop failure.
func (v Violation) Error() string {
	return fmt.Sprintf("audit: %s violated at %v: %s", v.Invariant, v.At, v.Detail)
}

// Auditor accumulates checks and violations over a run.
type Auditor struct {
	checks      int
	violations  []Violation
	onViolation func(Violation)

	// seen records, per job ID (job IDs are trace item indices, so the
	// slice stays as long as the trace), where the check stamped epoch
	// found the job. Each Check takes a fresh epoch instead of clearing
	// the slice; Rewind never rolls the epoch back, so a stamp left by an
	// abandoned fork's check can never pass for one of the current check.
	seen  []stamp
	epoch uint32
}

// stamp is one seen entry: the job was found at loc during check epoch.
type stamp struct {
	epoch uint32
	loc   location
}

// Kinds of place a job can be found in.
const (
	inResident uint8 = iota
	inPending
	inStranded
	inWire
)

// location is where Check found a job: a kind, plus the workstation for
// residents. It is formatted only when a violation is reported.
type location struct {
	kind uint8
	node int32
}

func (l location) String() string {
	switch l.kind {
	case inResident:
		return fmt.Sprintf("resident on node %d", l.node)
	case inPending:
		return "pending queue"
	case inStranded:
		return "stranded pool"
	default:
		return "migration wire"
	}
}

// SetOnViolation installs a hook invoked synchronously for every recorded
// violation, before it is returned as an error. The cluster uses it to
// trigger the anomaly flight recorder so the trace ring is dumped at the
// exact moment the invariant broke.
func (a *Auditor) SetOnViolation(fn func(Violation)) { a.onViolation = fn }

// New builds an auditor.
func New() *Auditor { return &Auditor{} }

// Checks reports how many snapshots have been audited.
func (a *Auditor) Checks() int { return a.checks }

// Rewind rolls the counters back to an earlier point, dropping checks and
// violations recorded after it. Cluster fork restores use it so audits of
// an abandoned continuation do not leak into the next fork.
func (a *Auditor) Rewind(checks, violations int) {
	if checks >= 0 && checks < a.checks {
		a.checks = checks
	}
	if violations >= 0 && violations < len(a.violations) {
		a.violations = a.violations[:violations]
	}
}

// Violations returns every recorded breach, in detection order.
func (a *Auditor) Violations() []Violation {
	out := make([]Violation, len(a.violations))
	copy(out, a.violations)
	return out
}

// fail records a violation and returns it as an error.
func (a *Auditor) fail(at time.Duration, invariant, format string, args ...any) error {
	v := Violation{At: at, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	a.violations = append(a.violations, v)
	if a.onViolation != nil {
		a.onViolation(v)
	}
	return v
}

// Check audits one snapshot, returning the first violation found (all
// violations are also recorded). Checks run in a fixed order so a given
// broken state always fails with the same message.
func (a *Auditor) Check(s Snapshot) error {
	a.checks++

	// Job conservation and duplicate detection.
	a.epoch++
	if a.epoch == 0 {
		// The epoch wrapped: stale stamps could now match, so wipe them.
		clear(a.seen)
		a.epoch = 1
	}
	resident := 0
	for i := range s.Nodes {
		n := &s.Nodes[i]
		for _, id := range n.Resident {
			if err := a.place(s.Now, id, location{inResident, int32(n.ID)}); err != nil {
				return err
			}
			resident++
		}
	}
	for _, id := range s.Pending {
		if err := a.place(s.Now, id, location{kind: inPending}); err != nil {
			return err
		}
	}
	for _, id := range s.Stranded {
		if err := a.place(s.Now, id, location{kind: inStranded}); err != nil {
			return err
		}
	}
	for _, id := range s.Wire {
		if err := a.place(s.Now, id, location{kind: inWire}); err != nil {
			return err
		}
	}
	accounted := s.Done + s.Killed + resident +
		len(s.Pending) + len(s.Stranded) + len(s.Wire) + s.RemoteInFlight
	if accounted != s.Arrived {
		return a.fail(s.Now, "job conservation",
			"%d arrived but %d accounted (done %d + killed %d + resident %d + pending %d + stranded %d + wire %d + remote %d)",
			s.Arrived, accounted, s.Done, s.Killed, resident,
			len(s.Pending), len(s.Stranded), len(s.Wire), s.RemoteInFlight)
	}

	// Per-node accounting and membership integrity, read in place: a
	// view is 72 bytes.
	for i := range s.Nodes {
		n := &s.Nodes[i]
		if n.Removed {
			if len(n.Resident) > 0 || n.Held > 0 {
				return a.fail(s.Now, "removed-node emptiness",
					"removed node %d holds %d resident and %d expected jobs",
					n.ID, len(n.Resident), n.Held)
			}
			if n.Reserved {
				return a.fail(s.Now, "lease integrity", "removed node %d is reserved", n.ID)
			}
			if n.Draining {
				return a.fail(s.Now, "membership lifecycle", "node %d both removed and draining", n.ID)
			}
			continue
		}
		if n.Down && len(n.Resident) > 0 {
			return a.fail(s.Now, "crash emptiness",
				"down node %d holds %d resident jobs", n.ID, len(n.Resident))
		}
		if n.IdleMB < 0 || n.IdleMB > n.UserMB {
			return a.fail(s.Now, "memory accounting",
				"node %d idle %.3f MB outside [0, %.3f]", n.ID, n.IdleMB, n.UserMB)
		}
		if len(n.Resident)+n.Held > n.Slots {
			return a.fail(s.Now, "slot discipline",
				"node %d holds %d resident + %d expected over %d slots",
				n.ID, len(n.Resident), n.Held, n.Slots)
		}
	}
	return nil
}

// place records that job id was found at loc, failing if it was already
// found somewhere else in this check.
func (a *Auditor) place(now time.Duration, id int, loc location) error {
	if id < 0 {
		return a.fail(now, "job identity", "job %d in %s has a negative ID", id, loc)
	}
	if id >= len(a.seen) {
		a.seen = append(a.seen, make([]stamp, id+1-len(a.seen))...)
	}
	st := &a.seen[id]
	if st.epoch == a.epoch {
		return a.fail(now, "job uniqueness", "job %d in %s and %s", id, st.loc, loc)
	}
	*st = stamp{epoch: a.epoch, loc: loc}
	return nil
}

// CheckTrace audits the structured event stream against the removal
// timeline: after a workstation is retired, no event may be addressed to
// it (the removal event itself and the cluster-scoped Node = -1 events are
// exempt). removedAt maps node ID to its retirement time.
func (a *Auditor) CheckTrace(events []obs.Event, removedAt map[int]time.Duration) error {
	a.checks++
	if len(removedAt) == 0 {
		return nil
	}
	for _, ev := range events {
		if ev.Node < 0 || ev.Kind == obs.KindNodeRemove {
			continue
		}
		at, ok := removedAt[int(ev.Node)]
		if !ok || ev.At <= at {
			continue
		}
		return a.fail(ev.At, "no events to removed nodes",
			"%v event addressed to node %d removed at %v", ev.Kind, ev.Node, at)
	}
	return nil
}
