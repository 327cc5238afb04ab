package cfrt

import "fmt"

// startXDoall enters an XDOALL phase for one participant: the machine-wide
// loop whose startup and scheduling run through global memory.
func (r *Runtime) startXDoall(ci, k int, ph XDoall) {
	work := func() {
		switch ph.schedule() {
		case StaticSchedule:
			p := len(r.ces)
			lo := ci * ph.N / p
			hi := (ci + 1) * ph.N / p
			r.runChunk(ci, k, ph.Body, lo, hi)
		case GuidedSchedule:
			r.guidedLoop(ci, k, ph)
		default:
			r.claimLoop(ci, k, ph)
		}
	}
	if ci == 0 {
		// The initiating processor pays the ≈90 µs library startup and
		// then releases the machine by writing the phase flag.
		r.enq(ci, scalarInstr(int64(r.m.P.XDoallStartup)), r.storeFlagInstr(k))
		r.after(ci, func(int64) { work() })
		return
	}
	r.pollFlag(ci, r.flagAddr, int64(k+1), work)
}

// runChunk executes iterations [lo, hi) sequentially, then barriers.
func (r *Runtime) runChunk(ci, k int, body BodyFn, lo, hi int) {
	if lo >= hi {
		r.barrier(ci, k)
		return
	}
	r.enq(ci, body(lo)...)
	r.after(ci, func(int64) { r.runChunk(ci, k, body, lo+1, hi) })
}

// claimLoop self-schedules iterations until the counter runs out.
func (r *Runtime) claimLoop(ci, k int, ph XDoall) {
	r.claim(ci, k, func(ticket int64) {
		if ticket >= int64(ph.N) {
			r.barrier(ci, k)
			return
		}
		r.enq(ci, ph.Body(int(ticket))...)
		r.after(ci, func(int64) { r.claimLoop(ci, k, ph) })
	})
}

// startSDoall enters an SDOALL phase: iterations are claimed by cluster
// masters; the other CEs of each cluster watch the concurrency control
// bus for CDOALLs spawned inside the iteration body.
func (r *Runtime) startSDoall(ci, k int, ph SDoall) {
	e := r.ces[ci]
	cs := r.clusterForCE(ci)
	if e.IDInCluster != 0 {
		// Worker: wait for bus broadcasts until the cluster is done.
		r.workerWait(ci, k, cs)
		return
	}
	clusterIdx := r.clusterIndex(cs)
	work := func() {
		if ph.Static {
			r.masterStatic(ci, k, ph, cs, clusterIdx, clusterIdx)
		} else {
			r.masterClaim(ci, k, ph, cs)
		}
	}
	if ci == 0 {
		r.enq(ci, scalarInstr(int64(r.m.P.XDoallStartup)), r.storeFlagInstr(k))
		r.after(ci, func(int64) { work() })
		return
	}
	r.pollFlag(ci, r.flagAddr, int64(k+1), work)
}

// clusterForCE resolves a CE index to its participating cluster. Panics
// if the CE belongs to no participating cluster — a scheduling bug.
func (r *Runtime) clusterForCE(ci int) *clusterCtl {
	cl := r.ces[ci].Cluster
	for _, cs := range r.clusters {
		if cs.cl.ID == cl {
			return cs
		}
	}
	panic("cfrt: CE outside participating clusters")
}

func (r *Runtime) clusterIndex(cs *clusterCtl) int {
	for i, c := range r.clusters {
		if c == cs {
			return i
		}
	}
	return -1
}

// masterStatic runs SDOALL iterations iter, iter+stride, ... on this
// cluster — the affinity scheduling that keeps partitions in place.
func (r *Runtime) masterStatic(ci, k int, ph SDoall, cs *clusterCtl, iter, first int) {
	_ = first
	if iter >= ph.N {
		cs.donePhase = k
		r.barrier(ci, k)
		return
	}
	r.runClusterWork(ci, k, cs, iter, ph.Body(iter), 0, func() {
		r.masterStatic(ci, k, ph, cs, iter+len(r.clusters), first)
	})
}

// masterClaim self-schedules SDOALL iterations through the global counter.
func (r *Runtime) masterClaim(ci, k int, ph SDoall, cs *clusterCtl) {
	r.claim(ci, k, func(ticket int64) {
		if ticket >= int64(ph.N) {
			cs.donePhase = k
			r.barrier(ci, k)
			return
		}
		iter := int(ticket)
		r.runClusterWork(ci, k, cs, iter, ph.Body(iter), 0, func() {
			r.masterClaim(ci, k, ph, cs)
		})
	})
}

// runClusterWork executes the j-th cluster phase of an SDOALL iteration on
// the master, then cont. Panics on an unknown cluster-phase type — a
// malformed program, not a runtime condition.
func (r *Runtime) runClusterWork(ci, k int, cs *clusterCtl, iter int, work []ClusterPhase, j int, cont func()) {
	if j >= len(work) {
		cont()
		return
	}
	next := func() { r.runClusterWork(ci, k, cs, iter, work, j+1, cont) }
	switch cp := work[j].(type) {
	case ClusterSerial:
		// Data private to an SDOALL iteration but shared by the cluster
		// lives in cluster memory; the serial part runs on the master
		// while workers keep watching the bus.
		r.enq(ci, cp.Body()...)
		r.after(ci, func(int64) { next() })

	case CDoall:
		cd := cp
		r.after(ci, func(cy int64) {
			at := cs.cl.Bus.ConcurrentStart(cy, cd.N)
			r.post(ci, cy, EvCDStart, int64(cd.N))
			cs.cd = &cd
			cs.iterArg = iter
			cs.startAt = at
			cs.cdStartCy = cy
			cs.gen++
			r.waitUntil(ci, at, func() {
				r.cdClaim(ci, k, cs, &cd, iter, true, next)
			})
		})

	default:
		panic("cfrt: unknown cluster phase")
	}
}

// workerWait parks a non-master CE until the bus broadcasts a CDOALL (or
// the cluster's SDOALL work ends). Watching the bus is free — the
// concurrency control hardware wakes CEs directly.
func (r *Runtime) workerWait(ci, k int, cs *clusterCtl) {
	ctl := r.ctl[ci]
	ctl.poll = func(cy int64) bool {
		if cs.gen > ctl.cdSeen {
			// Joins are cluster-wide, so the master is never more than
			// one generation ahead of any worker.
			ctl.poll = nil
			ctl.cdSeen = cs.gen
			cd := cs.cd
			iter := cs.iterArg
			r.waitUntil(ci, cs.startAt, func() {
				r.cdClaim(ci, k, cs, cd, iter, false, func() {
					r.workerWait(ci, k, cs)
				})
			})
			return true
		}
		if cs.donePhase == k {
			ctl.poll = nil
			r.barrier(ci, k)
			return true
		}
		return false
	}
}

// cdClaim self-schedules (or block-claims) CDOALL iterations on the bus,
// then joins; after the join completes, cont runs.
func (r *Runtime) cdClaim(ci, k int, cs *clusterCtl, cd *CDoall, iter int, isMaster bool, cont func()) {
	r.after(ci, func(cy int64) {
		if cd.Static {
			chunk := (cd.N + len(cs.cl.CEs) - 1) / len(cs.cl.CEs)
			first, count, at := cs.cl.Bus.ClaimBlock(cy, chunk)
			if count == 0 {
				r.waitUntil(ci, at, func() { r.cdJoin(ci, cs, cont) })
				return
			}
			r.waitUntil(ci, at, func() {
				r.runCDBlock(ci, cd, iter, first, first+count, func() {
					r.cdClaim(ci, k, cs, cd, iter, isMaster, cont)
				})
			})
			return
		}
		j, at := cs.cl.Bus.Claim(cy)
		if j < 0 {
			r.waitUntil(ci, at, func() { r.cdJoin(ci, cs, cont) })
			return
		}
		r.waitUntil(ci, at, func() {
			r.enq(ci, cd.Body(j)...)
			r.after(ci, func(int64) {
				r.cdClaim(ci, k, cs, cd, iter, isMaster, cont)
			})
		})
	})
}

func (r *Runtime) runCDBlock(ci int, cd *CDoall, iter, lo, hi int, cont func()) {
	if lo >= hi {
		cont()
		return
	}
	r.enq(ci, cd.Body(lo)...)
	r.after(ci, func(int64) { r.runCDBlock(ci, cd, iter, lo+1, hi, cont) })
}

// cdJoin arrives at the cluster join and waits for it to complete.
func (r *Runtime) cdJoin(ci int, cs *clusterCtl, cont func()) {
	r.after(ci, func(cy int64) {
		gen, doneAt, last := cs.cl.Bus.JoinArrive(cy)
		r.post(ci, cy, EvCDJoin, gen)
		if last {
			// The last arrival closes the loop instance's trace span:
			// broadcast to join completion.
			r.obs.Span(fmt.Sprintf("cfrt/cluster%d", cs.cl.ID),
				"cdoall", cs.cdStartCy, doneAt)
			r.waitUntil(ci, doneAt, cont)
			return
		}
		r.ctl[ci].poll = func(pollCy int64) bool {
			at, ok := cs.cl.Bus.JoinDone(gen, pollCy)
			if !ok {
				return false
			}
			r.ctl[ci].poll = nil
			r.waitUntil(ci, at, cont)
			return true
		}
	})
}

// waitUntil stalls the participant until the target cycle, then cont.
func (r *Runtime) waitUntil(ci int, target int64, cont func()) {
	r.after(ci, func(cy int64) {
		d := target - cy
		if d > 0 {
			r.enq(ci, scalarInstr(d))
		}
		r.after(ci, func(int64) { cont() })
	})
}
