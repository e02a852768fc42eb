// Elastic membership: runtime node joins, graceful drains, retirement, the
// utilization-threshold autoscaler, and the invariant-auditor snapshot.
// Node IDs are stable for the life of a run — a retired workstation leaves
// a tombstone in the node list and on the board, so every index computed
// before the removal stays valid after it.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"vrcluster/internal/audit"
	"vrcluster/internal/job"
	"vrcluster/internal/loadinfo"
	"vrcluster/internal/node"
	"vrcluster/internal/obs"
)

// MembershipKind selects a scheduled membership change.
type MembershipKind int

// Membership event kinds.
const (
	// MemberJoin adds a workstation built from the event's Node config.
	MemberJoin MembershipKind = iota + 1
	// MemberDrain starts a graceful drain of workstation ID; it is
	// retired automatically once its last resident job has left.
	MemberDrain
)

// MembershipEvent is one scheduled membership change in a run's script.
type MembershipEvent struct {
	At   time.Duration
	Kind MembershipKind
	Node node.Config // for MemberJoin; ID is assigned by the cluster
	ID   int         // for MemberDrain
}

// AutoscaleConfig drives the utilization-threshold autoscaler — the first
// consumer of the membership API. Zero MaxNodes disables it.
type AutoscaleConfig struct {
	// MaxNodes bounds the fleet; joins stop there. MinNodes bounds
	// scale-down (defaults to the initial fleet size).
	MaxNodes int
	MinNodes int
	// Proto is the template for autoscaled workstations.
	Proto node.Config
	// HighUtil and LowUtil are the slot-utilization thresholds that
	// trigger a join and a drain; Cooldown spaces decisions so one burst
	// cannot thrash the fleet.
	HighUtil float64
	LowUtil  float64
	Cooldown time.Duration
}

// Autoscaler defaults.
const (
	DefaultHighUtil          = 0.85
	DefaultLowUtil           = 0.25
	DefaultAutoscaleCooldown = 30 * time.Second
)

// validate fills defaults and rejects inconsistent autoscaler settings.
func (a *AutoscaleConfig) validate(initialNodes int) error {
	if a.MaxNodes == 0 {
		return nil
	}
	if a.MinNodes == 0 {
		a.MinNodes = initialNodes
	}
	if a.MinNodes <= 0 {
		return fmt.Errorf("cluster: autoscale min nodes %d must be positive", a.MinNodes)
	}
	if a.MaxNodes < a.MinNodes {
		return fmt.Errorf("cluster: autoscale max nodes %d below min %d", a.MaxNodes, a.MinNodes)
	}
	if a.HighUtil == 0 {
		a.HighUtil = DefaultHighUtil
	}
	if a.LowUtil == 0 {
		a.LowUtil = DefaultLowUtil
	}
	if a.LowUtil < 0 || a.HighUtil > 1 || a.LowUtil >= a.HighUtil {
		return fmt.Errorf("cluster: autoscale thresholds low %v / high %v invalid", a.LowUtil, a.HighUtil)
	}
	if a.Cooldown == 0 {
		a.Cooldown = DefaultAutoscaleCooldown
	}
	if a.Cooldown < 0 {
		return fmt.Errorf("cluster: negative autoscale cooldown %v", a.Cooldown)
	}
	return nil
}

// AddNode admits a new workstation at runtime: it gets the next node ID,
// joins the board (and the fault injector's schedule when one is armed)
// immediately, and is eligible for placements from the current instant.
func (c *Cluster) AddNode(nc node.Config) (int, error) {
	id := len(c.nodes)
	nc.ID = id
	n, err := node.New(nc)
	if err != nil {
		return -1, err
	}
	c.nodes = append(c.nodes, n)
	if id>>6 >= len(c.active) {
		c.active = append(c.active, 0)
		c.pressured = append(c.pressured, 0)
	}
	n.SetResidencyWatcher(func(resident int) { c.setActive(id, resident > 0) })
	n.SetPressureWatcher(func(pressured bool) { c.setPressured(id, pressured) })
	n.SetTracer(c.obs)
	if _, err := c.board.AddNode(entryFor(n, c.engine.Now())); err != nil {
		return -1, err
	}
	if c.injector != nil {
		if err := c.injector.AddNode(id); err != nil {
			return -1, err
		}
	}
	c.col.NodesJoined++
	c.emit(obs.KindNodeJoin, id, -1, c.board.Live(), 0, 0)
	return id, nil
}

// Drain starts a graceful drain of workstation id: no new work is accepted
// from this instant (the board entry is updated immediately, not at the
// next refresh), resident jobs are migrated out over the following control
// periods, and the workstation is retired once empty.
func (c *Cluster) Drain(id int) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	if n.Draining() {
		return nil
	}
	if err := n.StartDrain(); err != nil {
		return err
	}
	if _, ok := c.drainAt[id]; !ok {
		c.drainAt[id] = c.engine.Now()
	}
	c.col.NodesDrained++
	c.emit(obs.KindNodeDrain, id, -1, n.NumJobs(), 0, 0)
	return c.board.Publish(id, entryFor(n, c.engine.Now()))
}

// Remove retires a drained, empty workstation. Its node ID remains a
// tombstone: the node list and board keep the slot so every other index is
// untouched.
func (c *Cluster) Remove(id int) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	if err := n.Remove(); err != nil {
		return err
	}
	if err := c.board.Retire(id); err != nil {
		return err
	}
	if c.injector != nil {
		c.injector.RetireNode(id)
	}
	delete(c.drainAt, id)
	c.removedAt[id] = c.engine.Now()
	c.col.NodesRemoved++
	c.emit(obs.KindNodeRemove, id, -1, c.board.Live(), 0, 0)
	return nil
}

// entryFor converts a node's current status into a board entry stamped at
// now, mirroring the flags RefreshWith would pack.
func entryFor(n *node.Node, now time.Duration) loadinfo.Entry {
	st := n.LoadStatus()
	return loadinfo.Entry{
		NodeID:            st.NodeID,
		Jobs:              st.Jobs,
		Slots:             st.Slots,
		IdleMB:            st.IdleMB,
		UserMB:            st.UserMB,
		Pressured:         st.Pressured,
		Reserved:          st.Reserved,
		Down:              st.Down,
		Draining:          st.Draining,
		Removed:           st.Removed,
		HasSlot:           st.HasSlot,
		FaultRate:         st.FaultRate,
		IOActiveJobs:      st.IOActiveJobs,
		CacheAvailability: st.CacheAvailability,
		UpdatedAt:         now,
	}
}

// applyMembership executes one scheduled membership event. Draining a
// workstation that has already been retired (e.g. by the autoscaler) is a
// no-op, so membership scripts compose with autoscaling.
func (c *Cluster) applyMembership(ev MembershipEvent) error {
	switch ev.Kind {
	case MemberJoin:
		_, err := c.AddNode(ev.Node)
		return err
	case MemberDrain:
		n, err := c.Node(ev.ID)
		if err != nil {
			return err
		}
		if n.Removed() {
			return nil
		}
		return c.Drain(ev.ID)
	default:
		return fmt.Errorf("cluster: unknown membership event kind %d", ev.Kind)
	}
}

// processDrains advances every draining workstation: resident jobs are
// migrated to the best destination on the refreshed board, falling back to
// a degraded placement (least-busy live workstation, memory pressure
// ignored) once the drain has waited past the degradation bound, and the
// workstation is retired as soon as it is empty with no in-flight holds
// and no reservation. Runs after the policy's OnControl so lease breaks on
// draining workstations happen first.
func (c *Cluster) processDrains(now time.Duration) error {
	if len(c.drainAt) == 0 {
		return nil
	}
	for _, id := range sortedKeys(c.drainAt) {
		n := c.nodes[id]
		if n.Removed() {
			delete(c.drainAt, id)
			continue
		}
		if !n.Down() {
			degrade := false
			if limit, ok := c.degradeLimit(); ok {
				degrade = now-c.drainAt[id] > limit
			} else {
				degrade = now-c.drainAt[id] > DefaultAutoscaleCooldown
			}
			for _, j := range n.Jobs() {
				if j.State() != job.StateRunning {
					continue
				}
				demand := j.MemoryDemandMB()
				dst, ok := c.board.BestDestinationExcluding(demand, id)
				if !ok && degrade {
					dst, ok = c.degradeTarget(-1)
				}
				if !ok || dst == id {
					continue
				}
				if err := c.Migrate(j, dst, false); err == nil {
					c.col.DrainMigrations++
				}
			}
		}
		if n.NumJobs() == 0 && n.ExpectedCount() == 0 && !n.Reserved() {
			if err := c.Remove(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// autoscaleTick makes at most one scaling decision per cooldown window:
// join a workstation when slot utilization over the live fleet crosses the
// high threshold, drain the highest-ID live workstation when it falls
// under the low one. Utilization counts blocked submissions as demand so a
// wedged queue registers even when every slot is free of it.
func (c *Cluster) autoscaleTick(now time.Duration) error {
	as := &c.cfg.Autoscale
	if as.MaxNodes == 0 {
		return nil
	}
	if c.scaledAt >= 0 && now-c.scaledAt < as.Cooldown {
		return nil
	}
	slots, busy, live := 0, 0, 0
	last := -1
	for _, n := range c.nodes {
		if n.Removed() || n.Draining() {
			continue
		}
		live++
		last = n.ID()
		slots += n.Slots()
		busy += n.NumJobs()
	}
	if slots == 0 {
		return nil
	}
	util := float64(busy+len(c.pending)) / float64(slots)
	switch {
	case util > as.HighUtil && live < as.MaxNodes:
		if _, err := c.AddNode(as.Proto); err != nil {
			return err
		}
		c.col.AutoscaleUps++
		c.scaledAt = now
	case util < as.LowUtil && live > as.MinNodes && last >= 0:
		if err := c.Drain(last); err != nil {
			return err
		}
		c.col.AutoscaleDowns++
		c.scaledAt = now
	}
	return nil
}

// sortedKeys returns a map's integer keys in ascending order, so loops
// with side effects visit entries deterministically.
func sortedKeys[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// abortWireTo aborts every in-flight migration addressed into the given
// partitioned domain members: pending landing timers are canceled (or the
// shared-link transfer withdrawn), the wire time consumed so far is sunk
// into the job's migration cost, and the normal abort/retry path takes
// over — retries to the dark domain fail fast until the partition heals.
func (c *Cluster) abortWireTo(members []int) {
	if len(c.wire) == 0 {
		return
	}
	dark := make(map[int]bool, len(members))
	for _, id := range members {
		dark[id] = true
	}
	now := c.engine.Now()
	for _, jid := range sortedKeys(c.wire) {
		t := c.wire[jid]
		if !dark[t.dstID] || t.waiting {
			continue
		}
		if t.linkID >= 0 && c.link != nil {
			_, _ = c.link.Cancel(t.linkID)
			t.linkID = -1
		}
		c.engine.Cancel(t.handle)
		consumed := now - t.legStart
		if consumed < 0 {
			consumed = 0
		}
		c.migrationAborted(t.j, t.dstID, t.demandMB, t.cost+consumed, t.special, t.attempt)
	}
}

// unreachable reports whether a workstation is cut off by a domain
// partition — alive and computing, but dark to the rest of the cluster.
func (c *Cluster) unreachable(id int) bool {
	return c.injector != nil && c.injector.Partitioned(id)
}

// effectiveHome substitutes the lowest-ID live workstation when a job's
// home has been retired: arriving work from a trace outlives the
// workstation it was recorded on.
func (c *Cluster) effectiveHome(home int) int {
	if home >= 0 && home < len(c.nodes) && !c.nodes[home].Removed() {
		return home
	}
	for _, n := range c.nodes {
		if !n.Removed() {
			return n.ID()
		}
	}
	return home
}

// auditSnapshot refills the invariant auditor's view of the cluster. The
// snapshot and its slices are owned by the cluster and reused by every
// check; the auditor keeps no reference to them past Check.
func (c *Cluster) auditSnapshot() audit.Snapshot {
	s := &c.auditSnap
	s.Now = c.engine.Now()
	s.Arrived = c.arrived
	s.Done, s.Killed = 0, 0
	s.RemoteInFlight = c.remoteInFlight
	for _, j := range c.ranJobs {
		switch j.State() {
		case job.StateDone:
			s.Done++
		case job.StateKilled:
			s.Killed++
		}
	}
	s.Pending = s.Pending[:0]
	for _, p := range c.pending {
		s.Pending = append(s.Pending, p.j.ID)
	}
	s.Stranded = s.Stranded[:0]
	for _, st := range c.stranded {
		s.Stranded = append(s.Stranded, st.j.ID)
	}
	s.Wire = s.Wire[:0]
	for id := range c.wire {
		s.Wire = append(s.Wire, id)
	}
	slices.Sort(s.Wire)
	if extra := len(c.nodes) - cap(s.Nodes); extra > 0 {
		// Grow past the old views so their Resident buffers survive.
		s.Nodes = append(s.Nodes[:cap(s.Nodes)], make([]audit.NodeView, extra)...)
	}
	s.Nodes = s.Nodes[:len(c.nodes)]
	for i, n := range c.nodes {
		// Field by field through a pointer: a composite literal would be
		// built in a temporary and then copied over the view.
		v := &s.Nodes[i]
		ids := v.Resident[:0]
		for k := 0; k < n.NumJobs(); k++ {
			ids = append(ids, n.JobAt(k).ID)
		}
		v.ID = n.ID()
		v.Resident = ids
		v.Held = n.ExpectedCount()
		v.Reserved = n.Reserved()
		v.Down = n.Down()
		v.Draining = n.Draining()
		v.Removed = n.Removed()
		v.IdleMB = n.IdleMB()
		v.UserMB = n.Memory().UserMB()
		v.Slots = n.Slots()
	}
	return *s
}
