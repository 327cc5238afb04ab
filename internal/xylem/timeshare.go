package xylem

import (
	"sync"

	"cedar/internal/ce"
	"cedar/internal/params"
)

// TimeSharer multiplexes several programs onto one machine the way Xylem
// multiprogrammed cluster tasks: each cluster is gang-scheduled — all
// eight CEs switch tasks together at quantum boundaries, paying a context
// switch — because the concurrency control bus only serves one task's
// loops at a time.
//
// The paper collected every measurement in single-user mode "to avoid the
// non-determinism of multiprogramming"; TimeSharer implements exactly the
// perturbation they were avoiding, so the library can demonstrate it:
// barrier- and loop-scheduling-heavy programs suffer far more than their
// share of the machine, because a task's barrier can spin while its
// partner CEs run a different task.
//
// Rotation decisions read machine-wide completion flags, which is sound
// because the engine ticks every CE of a machine from one goroutine, in
// registration order. The mutex below keeps a TimeSharer race-free if a
// caller shares it between machines running on different goroutines;
// the rotations of such a shared instance would interleave across the
// machines and are not reproducible.
type TimeSharer struct {
	mu      sync.Mutex
	p       params.Machine
	quantum int64
	sw      int64 // context switch cost in cycles
	tasks   []ce.Controller

	cluster  []tsCluster
	finished [][]bool // [task][ceID]
	doneAt   []int64  // [task] cycle the task's last CE finished
	switches int64
}

type tsCluster struct {
	current  int
	switchAt int64
	// pendingSwitch[ceInCluster] is set when the CE still owes the
	// context-switch stall for the current rotation.
	pendingSwitch []bool
}

// NewTimeSharer builds a sharer over the given programs. quantum is the
// scheduling quantum in cycles; the context switch cost comes from the
// task model.
func NewTimeSharer(p params.Machine, tm TaskModel, quantum int64, tasks ...ce.Controller) *TimeSharer {
	if quantum < 1 {
		quantum = 1
	}
	t := &TimeSharer{
		p:       p,
		quantum: quantum,
		sw:      tm.SwitchCycles,
		tasks:   tasks,
		cluster: make([]tsCluster, p.Clusters),
		doneAt:  make([]int64, len(tasks)),
	}
	for i := range t.cluster {
		t.cluster[i] = tsCluster{
			switchAt:      quantum,
			pendingSwitch: make([]bool, p.CEsPerCluster),
		}
	}
	for range tasks {
		t.finished = append(t.finished, make([]bool, p.CEs()))
	}
	return t
}

// Switches reports how many cluster-level rotations occurred.
func (t *TimeSharer) Switches() int64 { return t.switches }

// DoneAt reports the cycle a task's last CE finished (0 if not yet).
func (t *TimeSharer) DoneAt(task int) int64 { return t.doneAt[task] }

// taskDone reports whether every CE finished the task.
func (t *TimeSharer) taskDone(task int) bool {
	for _, f := range t.finished[task] {
		if !f {
			return false
		}
	}
	return true
}

// Next implements ce.Controller.
func (t *TimeSharer) Next(ceID int, cycle int64) (*ce.Instr, ce.Status) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cl := &t.cluster[ceID/t.p.CEsPerCluster]
	inCluster := ceID % t.p.CEsPerCluster

	// Gang switch: the first CE of the cluster to cross the boundary
	// rotates the whole cluster; every CE then owes one switch stall.
	if cycle >= cl.switchAt {
		// Re-arm from now (a long-running instruction may have carried
		// the cluster past several boundaries). The switch stall itself
		// must not eat the whole quantum, so it is added on top —
		// otherwise a quantum shorter than a context switch would rotate
		// forever without running anything.
		cl.switchAt = cycle + t.sw + t.quantum
		next := t.nextLiveTask(cl.current)
		if next != cl.current {
			cl.current = next
			t.switches++
			for i := range cl.pendingSwitch {
				cl.pendingSwitch[i] = true
			}
		}
	}
	if cl.pendingSwitch[inCluster] {
		cl.pendingSwitch[inCluster] = false
		return &ce.Instr{Op: ce.OpScalar, Cycles: t.sw}, ce.Ready
	}

	cur := cl.current
	if t.finished[cur][ceID] {
		// This CE has no more work in the current task; idle until the
		// next rotation (or finish if every task is done for it).
		for task := range t.tasks {
			if !t.finished[task][ceID] {
				return nil, ce.Wait
			}
		}
		return nil, ce.Finished
	}

	in, st := t.tasks[cur].Next(ceID, cycle)
	switch st {
	case ce.Finished:
		t.finished[cur][ceID] = true
		if t.taskDone(cur) && t.doneAt[cur] == 0 {
			t.doneAt[cur] = cycle
		}
		return nil, ce.Wait
	case ce.Wait:
		return nil, ce.Wait
	default:
		return in, ce.Ready
	}
}

// nextLiveTask returns the next task with any unfinished CE, or cur.
func (t *TimeSharer) nextLiveTask(cur int) int {
	n := len(t.tasks)
	for off := 1; off <= n; off++ {
		cand := (cur + off) % n
		if !t.taskDone(cand) {
			return cand
		}
	}
	return cur
}

// FixedWork is a simple gang of identical scalar workloads — every CE
// executes instrs scalar operations of the given length. Useful as a
// background task in multiprogramming studies.
type FixedWork struct {
	instrs int
	cycles int64
	mu     sync.Mutex
	pos    map[int]int
}

// NewFixedWork builds the workload.
func NewFixedWork(instrs int, cycles int64) *FixedWork {
	return &FixedWork{instrs: instrs, cycles: cycles, pos: map[int]int{}}
}

// Next implements ce.Controller.
func (f *FixedWork) Next(ceID int, cycle int64) (*ce.Instr, ce.Status) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pos[ceID] >= f.instrs {
		return nil, ce.Finished
	}
	f.pos[ceID]++
	return &ce.Instr{Op: ce.OpScalar, Cycles: f.cycles, Flops: 1}, ce.Ready
}
