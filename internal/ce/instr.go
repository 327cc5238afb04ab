// Package ce models an Alliant FX/8 computational element as deployed in
// Cedar: a 170 ns pipelined scalar processor with a vector unit (eight
// 32-word registers, 64-bit floating point, register-memory instructions
// with one memory operand, chaining) and a per-CE global-memory interface
// limited to two outstanding requests unless the prefetch unit is used.
//
// CEs do not interpret 68020 machine code; they execute Instrs — an
// abstraction at the level the paper reasons about: scalar work, vector
// operations over memory streams, scalar global accesses, and Cedar
// synchronization instructions. A Controller feeds Instrs to each CE,
// which is how the Cedar Fortran runtime schedules loop iterations.
package ce

import (
	"sync"

	"cedar/internal/network"
)

// Space says where a stream's data lives.
type Space uint8

// Stream address spaces.
const (
	// SpaceNone is a register-resident operand: always available.
	SpaceNone Space = iota
	// SpaceGlobal is Cedar's shared global memory, reached through the
	// forward/reverse networks.
	SpaceGlobal
	// SpaceCluster is the cluster memory behind the shared cache.
	SpaceCluster
)

// Stream describes one vector memory operand.
type Stream struct {
	Space  Space
	Base   uint64 // word address of element 0
	Stride int64  // words between elements
	// PrefBlock selects prefetched access in blocks of this many words
	// (global streams only; at most one prefetched stream per
	// instruction, since a CE has a single PFU). Zero means plain
	// loads limited to the CE's two outstanding requests.
	PrefBlock int
}

// Op is an instruction kind.
type Op uint8

// Instruction kinds.
const (
	// OpScalar models Cycles of scalar computation contributing Flops
	// floating-point operations.
	OpScalar Op = iota
	// OpVector is a strip-mined vector operation of N elements reading
	// Srcs and optionally writing Dst, contributing Flops per element.
	OpVector
	// OpGlobalLoad is a blocking scalar load from global memory.
	OpGlobalLoad
	// OpGlobalStore is a non-blocking scalar store to global memory.
	OpGlobalStore
	// OpSync is a blocking Cedar Test-And-Operate on a global location,
	// executed by the memory module's synchronization processor.
	OpSync
	// OpFence blocks until all of this CE's global stores have been
	// acknowledged (a memory-ordering point in the weakly ordered
	// global memory).
	OpFence
	// OpClusterLoad is a blocking scalar load through the cluster cache.
	OpClusterLoad
	// OpClusterStore is a non-blocking scalar store through the cache.
	OpClusterStore
)

// Instr is one CE instruction.
type Instr struct {
	Op Op

	// OpScalar.
	Cycles int64

	// Flops: total for OpScalar, per element for OpVector.
	Flops int64

	// OpVector.
	N    int
	Srcs []Stream
	Dst  *Stream

	// Scalar memory / sync operations.
	Addr    uint64
	Value   int64
	Test    network.TestOp
	Mut     network.MutOp
	TestArg int64

	// OnResult fires when a load or sync completes, with the returned
	// value (and for sync, whether the test passed).
	OnResult func(value int64, passed bool, cycle int64)

	// OnDone fires when the instruction retires.
	OnDone func(cycle int64)
}

// Status is a Controller response.
type Status uint8

// Controller responses.
const (
	// Ready: the returned instruction should execute now.
	Ready Status = iota
	// Wait: nothing to do this cycle; ask again.
	Wait
	// Finished: this CE has no further work.
	Finished
)

// Controller feeds instructions to a CE. The Cedar Fortran runtime
// implements Controller to schedule loops; tests use canned sequences.
type Controller interface {
	Next(ceID int, cycle int64) (*Instr, Status)
}

// Program is a fixed instruction sequence implementing Controller.
type Program struct {
	Instrs []*Instr
	// mu guards the lazily built position map. The engine calls Next
	// from one goroutine, but a Program is a plain library value that
	// callers may share between machines running on different
	// goroutines, so Next must stay race-free. Each CE only ever touches
	// its own entry.
	mu  sync.Mutex
	pos map[int]int
}

// Next implements Controller: every CE runs the same sequence privately.
func (p *Program) Next(ceID int, cycle int64) (*Instr, Status) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pos == nil {
		p.pos = make(map[int]int) //lint:allow hotalloc one-time lazy initialisation per program, not per-cycle work
	}
	i := p.pos[ceID]
	if i >= len(p.Instrs) {
		return nil, Finished
	}
	p.pos[ceID] = i + 1
	return p.Instrs[i], Ready
}
