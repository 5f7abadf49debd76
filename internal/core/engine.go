// Package core implements the paper's distributed BFS engine on top of the
// 1.5D partitioning: per-component push/pull kernels, sub-iteration direction
// optimization (Section 4.2), CG-aware segmenting of the EH2EH pull (Section
// 4.3), edge-aware vertex-cut load balancing of the EH2EH push (Section 5),
// and delayed reduction of the delegated parent array (Section 5). Ranks are
// comm.World goroutines; hub (E and H) state is delegated — replicated and
// synchronized with column+row collectives — while L state lives only at its
// owner.
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// DirectionMode selects how traversal directions are chosen.
type DirectionMode int

// Direction modes.
const (
	// ModeSubIteration picks a direction per component per iteration — the
	// paper's contribution.
	ModeSubIteration DirectionMode = iota
	// ModeWholeIteration picks one direction for the whole iteration —
	// vanilla direction optimization, the Figure 15 baseline.
	ModeWholeIteration
	// ModePushOnly forces top-down everywhere (classic BFS).
	ModePushOnly
	// ModePullOnly forces bottom-up everywhere (debug/verification aid).
	ModePullOnly
)

// SparseMode selects whether tail iterations ship the remote push
// components' per-destination buffers through the sparse allgather
// (comm.AllgatherSparse) instead of the dense alltoallv. Both carry the same
// typed messages; only the collective differs.
type SparseMode int

// Sparse-tail modes.
const (
	// SparseAuto switches per component per iteration: a remote push
	// component goes sparse when its global active-source count is at or
	// below SparseCutoff and the previous iteration's globally observed
	// data-plane bytes fit under SparseMaxBytes. The default.
	SparseAuto SparseMode = iota
	// SparseOff forces the dense exchanges everywhere (the pre-sparse
	// schedule, and the differential corpus's reference arm).
	SparseOff
	// SparseAlways forces the sparse exchange for every eligible remote push
	// component regardless of frontier size (stress/verification aid).
	SparseAlways
)

// Options configures an Engine.
type Options struct {
	Mesh    topology.Mesh    // process mesh; zero value = squarest mesh for P
	Ranks   int              // number of ranks; required if Mesh is zero
	Machine topology.Machine // traffic model; zero value = NewSunway(P)

	Thresholds partition.Thresholds // degree thresholds; zero = DefaultThresholds

	Direction DirectionMode
	// Segmented enables CG-aware segmenting of the EH2EH pull kernel.
	Segmented bool
	// Segments is the segment count (the chip has 6 CGs). 0 means 6.
	Segments int
	// SegmentAdaptive chooses between the flat and the segmented EH2EH pull
	// per iteration from measured kernel durations instead of statically:
	// each rank keeps per-frontier-size-bucket duration averages of both
	// variants and runs whichever measures faster, re-exploring the loser
	// periodically so a drifting crossover is re-found. Every choice is
	// emitted as a "segment_choice" decision span, auditable in the Chrome
	// trace. Implies building the segmented adjacency (Segments controls the
	// count); overrides Segmented. Off by default: the two pull variants may
	// discover different (equally valid) BFS parents, so timing-driven
	// switching makes repeated runs nondeterministic — and RunBatch accepts
	// only a single root under it.
	SegmentAdaptive bool
	// RankWorkers is intra-rank kernel parallelism; the EH2EH push uses
	// edge-aware vertex-cut chunking across these workers. 0 means 1.
	RankWorkers int
	// Hierarchical routes L2L messages through the intersection rank of the
	// source column and destination row (two alltoallvs on sub-communicators)
	// instead of one world alltoallv, as the paper's forwarding does.
	Hierarchical bool
	// PullThreshold is the active-source fraction above which node-local
	// components (EH2EH, E2L, L2E) switch to pull. 0 means 0.05.
	PullThreshold float64
	// PullRatio scales the push/pull comparison for remote components (H2L,
	// L2H, L2L): pull wins when unvisitedDstFrac < activeSrcFrac*PullRatio.
	// 0 means 16, tuned like Beamer's bottom-up switch factor: scanning an
	// unvisited destination is far cheaper than a per-edge message, and
	// early exit truncates most scans.
	PullRatio float64
	// SparseTail selects the sparse tail path for the remote push
	// components (H2L, L2H, and non-hierarchical L2L): tiny tail frontiers
	// post their per-destination message buffers once over an allgather
	// instead of a dense personalized alltoallv, and when both row-exchange
	// components (H2L and L2H) go sparse in the same iteration their buffer
	// lists batch into a single contribution. Hierarchical L2L always stays dense: its two-stage
	// forwarding is the point of that mode and its apply order differs from a
	// flat exchange. The zero value is SparseAuto (adaptive, on).
	SparseTail SparseMode
	// SparseCutoff is the largest global active-source count at which
	// SparseAuto picks the sparse path for a component. 0 means 64 per rank.
	SparseCutoff int64
	// SparseMaxBytes is the largest previous-iteration global data-plane
	// byte count at which SparseAuto keeps choosing sparse (hysteresis
	// against a collapsing-then-exploding frontier). 0 means 32KiB per rank.
	SparseMaxBytes int64
	// ImmediateParentReduction reduces the delegated parent array after
	// every iteration instead of once after the run — the traditional scheme
	// the paper's delayed reduction (Section 5) replaces. Exists for the
	// ablation benchmark; the measured reduce-scatter volume difference is
	// the technique's claimed saving.
	ImmediateParentReduction bool
	// BuildWorkers caps partitioning parallelism. 0 means GOMAXPROCS.
	BuildWorkers int
	// MaxIterations aborts runs that fail to converge. 0 means 2*64
	// (a small-world graph's diameter is far below this). Exhausting it
	// returns an error satisfying errors.Is(err, ErrNoConvergence).
	MaxIterations int

	// Transport injects faults into the rank world's collectives (see
	// internal/faultinject). nil means a perfectly reliable transport and
	// zero resilience overhead: no snapshots, no votes, no checksums.
	Transport comm.Transport
	// Dist attaches the world to a cross-process socket group (see
	// comm.DistConfig): this process then hosts only the ranks
	// DistConfig.ProcOf maps to it, collectives between processes ride the
	// wire transport, and result assembly gathers the remote ranks' owned
	// segments over the control plane. Every process of the group must run
	// the same engine calls with the same options (SPMD). When set,
	// CheckpointDir must name a directory shared by all processes — it is
	// the recovery protocol's shared truth. nil keeps the single-process
	// goroutine backend.
	Dist *comm.DistConfig
	// CollectiveDeadline fails any collective whose slowest contribution was
	// delayed past it (comm.ErrDeadlineExceeded). 0 disables the watchdog.
	CollectiveDeadline time.Duration
	// MaxRetries bounds consecutive re-executions of one failed iteration
	// before the run aborts with ErrNoConvergence. 0 means 4; negative means
	// no retries (fail on the first collective error).
	MaxRetries int
	// RetryBackoff is the base backoff slept before re-executing a failed
	// iteration, doubling per consecutive retry. 0 means 200µs.
	RetryBackoff time.Duration

	// CheckpointDir enables the durable two-tier checkpoint store (see
	// internal/checkpoint): the immutable partitioned graph is written there
	// once, and every run writes per-iteration state deltas into a run
	// scope, which is what fail-stop recovery resumes from. Empty disables
	// checkpointing — a killed rank then forces a full restart of the
	// traversal under the new world.
	CheckpointDir string
	// CheckpointEvery is the delta-tier cadence in iterations (1 = every
	// iteration). 0 means 1.
	CheckpointEvery int
	// Recovery selects how the world is rebuilt after a fail-stop:
	// RecoverShrink (default) re-homes dead slots onto surviving nodes,
	// RecoverRestore spawns replacements on spare nodes.
	Recovery RecoveryMode
	// KeepCheckpoints retains a run's delta scope after success instead of
	// pruning it (the graph tier is always retained). Needed to resume a
	// later engine instance with ResumeFrom.
	KeepCheckpoints bool
	// Trace, when non-nil, records the run's span timeline: one span per
	// kernel/sync/reduce execution and per collective on every rank, plus
	// direction decisions, checkpoint-writer commits and recovery events.
	// nil disables tracing; the hot path then pays one nil check per hook.
	Trace *trace.Tracer
	// ResumeFrom names an existing run scope under CheckpointDir to resume
	// the first Run call from — the cross-process restart path. The scope's
	// latest complete iteration is loaded; if the scope cannot seed a resume
	// (no valid bootstrap segments) the run restarts from the root. On a
	// resumed run Result.Trace covers only the re-executed iterations (the
	// absolute iteration axis starts past the checkpoint), so Iterations
	// undercounts the traversal's logical depth by LastResumeIter+1.
	ResumeFrom string
	// Drain, when non-nil, is polled once per iteration vote; when it starts
	// returning true (a supervisor forwarding SIGTERM), every rank finishes
	// the current iteration, commits a must-write checkpoint, and the run
	// returns an error wrapping ErrDrained with its scope retained — the
	// resumable graceful-shutdown path. The decision is voted like a fault,
	// so one process's drain request stops the whole world consistently.
	Drain func() bool
}

// RecoveryMode selects the world-rebuild strategy after a fail-stop.
type RecoveryMode int

// Recovery modes.
const (
	// RecoverShrink re-homes each dead rank slot onto a surviving node: no
	// spare hardware needed, the host node runs oversubscribed and re-owns
	// the dead rank's vertex range from checkpoint.
	RecoverShrink RecoveryMode = iota
	// RecoverRestore spawns a replacement rank on a fresh spare node that
	// rejoins at the current epoch, reloading the graph tier and the dead
	// rank's delta chain from checkpoint.
	RecoverRestore
)

// String names the mode.
func (m RecoveryMode) String() string {
	return m.rebuild().String()
}

func (m RecoveryMode) rebuild() comm.RebuildMode {
	if m == RecoverRestore {
		return comm.RebuildRestore
	}
	return comm.RebuildShrink
}

// DefaultThresholds scales the paper's SCALE-35 tuning (E=2048, H=128 per
// Figure 12's best cell) down with graph size: thresholds sit between the
// comb peaks of the R-MAT degree distribution, which shift with scale.
func DefaultThresholds(scale int) partition.Thresholds {
	e := int64(1) << uint(scale/2+2)
	h := e / 16
	if h < 2 {
		h = 2
	}
	if e <= h {
		e = h + 1
	}
	return partition.Thresholds{E: e, H: h}
}

func (o Options) withDefaults() (Options, error) {
	if o.Mesh.Rows == 0 && o.Mesh.Cols == 0 {
		if o.Ranks <= 0 {
			return o, fmt.Errorf("core: Options needs Mesh or Ranks")
		}
		o.Mesh = topology.SquarestMesh(o.Ranks)
	}
	o.Ranks = o.Mesh.Size()
	if o.Machine.Nodes == 0 {
		o.Machine = topology.NewSunway(o.Ranks)
	}
	if o.Segments <= 0 {
		o.Segments = 6
	}
	if o.RankWorkers <= 0 {
		o.RankWorkers = 1
	}
	if o.PullThreshold == 0 {
		o.PullThreshold = 0.05
	}
	if o.PullRatio == 0 {
		o.PullRatio = 16.0
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 128
	}
	if o.SparseCutoff <= 0 {
		o.SparseCutoff = 64 * int64(o.Ranks)
	}
	if o.SparseMaxBytes <= 0 {
		o.SparseMaxBytes = 32 * 1024 * int64(o.Ranks)
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 4
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 200 * time.Microsecond
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 1
	}
	return o, nil
}

// ErrNoConvergence marks a BFS run that ended without draining its frontier:
// either MaxIterations elapsed with vertices still being discovered, or a
// failing iteration exhausted MaxRetries (in which case the returned error
// also wraps the comm sentinel that kept firing, e.g. comm.ErrRankStalled).
var ErrNoConvergence = errors.New("core: BFS did not converge")

// ErrDrained marks a run stopped by a graceful drain request (Options.Drain):
// the workload state was checkpointed at the stop iteration and the run scope
// retained, so a later engine resumes it via ResumeFrom.
var ErrDrained = errors.New("core: run drained")

// errRemoteFatal is the verdict a process adopts when the epoch outcome
// exchange reports a fatal error on a peer that its own ranks never saw.
var errRemoteFatal = errors.New("core: remote process reported a fatal error")

// Epoch outcome codes carried by comm.World.ExchangeOutcome; the merge keeps
// the maximum, so any process reporting drained/fatal overrides ok everywhere.
const (
	outcomeOK      uint8 = 0
	outcomeFatal   uint8 = 1
	outcomeDrained uint8 = 2
)

// errRemoteRank stands in for the collective error when the local rank's
// iteration succeeded but the global vote said another rank's failed.
var errRemoteRank = errors.New("core: collective error on a remote rank")

// Engine runs BFS over a partitioned graph.
type Engine struct {
	Part  *partition.Partitioned
	World *comm.World
	Opt   Options

	segPull  [][]partition.SparseCSR // [rank][segment], built when Segmented or SegmentAdaptive
	segAdapt []*segAdapter           // [rank] measured flat-vs-segmented state, when SegmentAdaptive

	tr         *trace.Stream // engine-level span stream; nil when tracing is off
	runSeq     int           // run-scope counter for checkpoint naming
	resumeFrom string        // pending Opt.ResumeFrom, consumed by the next Run

	// PartitionSeconds and ConstructSeconds split NewEngine's wall time into
	// the partitioning phase (with the stage breakdown in Part.Stats) and the
	// rank-world/adjacency construction that follows — the setup cost a
	// benchmark report surfaces next to traversal throughput. Both are zero
	// for engines built via NewEngineFromPartition with pre-partitioned input.
	PartitionSeconds float64
	ConstructSeconds float64
}

// NewEngine partitions the graph (n vertices, undirected edge list) and sets
// up the rank world.
func NewEngine(n int64, edges []Edge, opt Options) (*Engine, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	th := opt.Thresholds
	if th == (partition.Thresholds{}) {
		s := 0
		for int64(1)<<uint(s) < n {
			s++
		}
		th = DefaultThresholds(s)
		opt.Thresholds = th
	}
	t0 := time.Now()
	part, err := partition.Build(n, edges, opt.Mesh, th, opt.BuildWorkers)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	e, err := NewEngineFromPartition(part, opt)
	if err != nil {
		return nil, err
	}
	e.PartitionSeconds = t1.Sub(t0).Seconds()
	e.ConstructSeconds = time.Since(t1).Seconds()
	return e, nil
}

// Edge aliases the generator's edge type so callers of the core package do
// not need to import rmat directly.
type Edge = partition.Edge

// NewEngineFromPartition wraps an existing partitioning.
func NewEngineFromPartition(part *partition.Partitioned, opt Options) (*Engine, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if part.Layout.Mesh != opt.Mesh {
		return nil, fmt.Errorf("core: partition mesh %v differs from options mesh %v", part.Layout.Mesh, opt.Mesh)
	}
	world, err := comm.NewWorldOpts(opt.Ranks, opt.Mesh, opt.Machine, comm.WorldOptions{
		Transport: opt.Transport,
		Deadline:  opt.CollectiveDeadline,
		Trace:     opt.Trace,
		Dist:      opt.Dist,
	})
	if err != nil {
		return nil, err
	}
	e := &Engine{Part: part, World: world, Opt: opt, resumeFrom: opt.ResumeFrom}
	if opt.Trace != nil {
		e.tr = opt.Trace.NewStream(-1)
	}
	if opt.Segmented || opt.SegmentAdaptive {
		e.segPull = make([][]partition.SparseCSR, opt.Ranks)
		for r, rg := range part.Ranks {
			e.segPull[r] = rg.SegmentedPull(opt.Segments, part.Hubs.K())
		}
	}
	if opt.SegmentAdaptive {
		e.segAdapt = make([]*segAdapter, opt.Ranks)
		for r := range e.segAdapt {
			e.segAdapt[r] = &segAdapter{}
		}
	}
	return e, nil
}

// SetResumeFrom arms the next Run call to execute under the named checkpoint
// scope, resuming its latest complete iteration when the scope holds one and
// bootstrapping fresh under that name otherwise. Callers that run a root list
// across process restarts (cmd/bfsrun) use it to give every root a
// deterministic scope name: a root interrupted by a world crash is resumed,
// a finished root (its scope pruned) is simply re-run under the same name.
func (e *Engine) SetResumeFrom(name string) { e.resumeFrom = name }

// Result is one BFS run's output.
type Result struct {
	Root       int64
	Parent     []int64 // parent per original vertex; -1 unreachable
	Iterations int
	Time       time.Duration
	// TraversedEdges counts input undirected edges with both endpoints in
	// the traversed component — the Graph 500 TEPS numerator.
	TraversedEdges int64
	// Recorder aggregates all ranks' breakdowns.
	Recorder *stats.Recorder
	// PerRank holds each rank's own breakdown.
	PerRank []*stats.Recorder
	// Trace records per-iteration frontier composition and chosen
	// directions (Figure 5 and the direction-optimization diagnostics).
	Trace []IterTrace
	// Faults aggregates all ranks' injected faults and observed collective
	// errors; zero when no fault transport was installed.
	Faults comm.FaultStats
	// Retries counts iteration re-executions across all ranks; RecoveryTime
	// is the wall time the slowest rank spent in failed attempts + backoff.
	Retries      int64
	RecoveryTime time.Duration
	// Recovery accounts fail-stop recovery: world epochs spent, ranks lost,
	// iterations replayed, checkpoint bytes written and restored.
	Recovery stats.RecoveryStats
	// CheckpointScope names the run's retained delta scope under
	// Options.CheckpointDir ("" when checkpointing is off or the scope was
	// pruned after success). Pass it to a later engine's ResumeFrom.
	CheckpointScope string
}

// IterTrace is one iteration's frontier composition and direction choices.
type IterTrace struct {
	ActiveE, ActiveH, ActiveL int64
	Directions                [partition.NumComponents]stats.Direction
	// Sparse marks the remote push components whose messages rode the sparse
	// allgather (comm.AllgatherSparse) instead of the dense alltoallv this
	// iteration; always false for components that pulled or skipped.
	Sparse [partition.NumComponents]bool
}

// GTEPS returns giga-traversed-edges-per-second for the run.
func (r *Result) GTEPS() float64 {
	if r.Time <= 0 {
		return 0
	}
	return float64(r.TraversedEdges) / r.Time.Seconds() / 1e9
}

// Collective schedule tags (comm.Call.Tag). Kernels are tagged with their
// component enum value (0..5); these name the remaining tagged points, so a
// fault transport can scope a kill to "during component c", "at the
// epilogue", or "during setup" instead of raw sequence numbers.
const (
	TagEpilogue = int(partition.NumComponents)     // frontier advance + active-L allreduce
	TagReduce   = int(partition.NumComponents) + 1 // delegated parent reduction
	TagSetup    = int(partition.NumComponents) + 2 // epoch-start setup barrier (Iter -1)
)

// deadWorldError aborts a rank's bfs when the control-plane vote agreed some
// ranks fail-stopped: not retryable inside the current world epoch, the
// engine must rebuild the world and resume from checkpoint.
type deadWorldError struct{ dead []int }

func (e *deadWorldError) Error() string {
	return fmt.Sprintf("core: ranks %v fail-stopped; world rebuild required", e.dead)
}

func (e *deadWorldError) Unwrap() error { return comm.ErrRankDead }

// deadRanks collects the union of agreed-dead ranks from an epoch's errors.
func deadRanks(errs []error) []int {
	seen := map[int]bool{}
	for _, err := range errs {
		var dw *deadWorldError
		if errors.As(err, &dw) {
			for _, d := range dw.dead {
				seen[d] = true
			}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	dead := make([]int, 0, len(seen))
	for d := range seen {
		dead = append(dead, d)
	}
	sort.Ints(dead)
	return dead
}

// distLeader reports whether this process should perform once-per-world side
// effects (meta commits, scope pruning): the process hosting rank 0, which on
// the in-process backend is everyone's answer.
func (e *Engine) distLeader() bool {
	return !e.World.Distributed() || e.World.ProcOf(0) == e.World.Group().Proc()
}

// ensureGraphTier writes the graph tier once per (store, partitioning): every
// rank's partitioned graph first, the meta segment last as the commit marker,
// so a crash mid-write reads back as "no valid tier" and is rewritten. On a
// distributed world each process writes only its local ranks' graphs into the
// shared store, a fence makes them all durable, and the process hosting rank
// 0 commits the meta segment; a second fence keeps anyone from trusting the
// tier before the commit lands.
func (e *Engine) ensureGraphTier(store *checkpoint.Store) (segs, bytes int64, err error) {
	lay := e.Part.Layout
	meta := checkpoint.GraphMeta{
		N:        lay.N,
		Ranks:    e.Opt.Ranks,
		MeshRows: lay.Mesh.Rows,
		MeshCols: lay.Mesh.Cols,
		PerRank:  lay.PerRank,
		NumE:     e.Part.Hubs.NumE,
		NumH:     e.Part.Hubs.NumH,
		ThreshE:  e.Opt.Thresholds.E,
		ThreshH:  e.Opt.Thresholds.H,
	}
	if store.HasGraph(meta) {
		// Every process sees the same committed tier (the meta segment is
		// written strictly after all processes' HasGraph checks, behind a
		// fence), so taking this branch is an SPMD-consistent decision.
		return 0, 0, nil
	}
	for r, rg := range e.Part.Ranks {
		if !e.World.IsLocal(r) {
			continue
		}
		n, werr := store.WriteRankGraph(r, rg)
		if werr != nil {
			return segs, bytes, werr
		}
		segs++
		bytes += n
	}
	e.World.Fence()
	if e.distLeader() {
		n, werr := store.WriteGraphMeta(meta)
		if werr != nil {
			return segs, bytes, werr
		}
		segs++
		bytes += n
	}
	e.World.Fence()
	return segs, bytes, nil
}

// workloadFactory builds one rank's workload state for an epoch. The factory
// runs once per rank per world epoch — a rebuilt world re-creates every
// workload and replays it from checkpoint.
type workloadFactory func(e *Engine, r *comm.Rank) workload

// runEpoch executes one world epoch: every rank of the current world runs the
// shared driver loop over its workload, resuming from resumeIter when >= -1
// (replaced marks rank slots whose predecessor died last epoch). A fail-stop
// surfaces as *deadWorldError in errs on every rank.
func (e *Engine) runEpoch(mk workloadFactory, store *checkpoint.Store, scope *checkpoint.RunScope,
	resumeIter int64, replaced map[int]bool) ([]workload, [][]IterTrace, []error) {
	states := make([]workload, e.Opt.Ranks)
	traces := make([][]IterTrace, e.Opt.Ranks)
	errs := make([]error, e.Opt.Ranks)
	e.World.Run(func(r *comm.Rank) {
		wl := mk(e, r)
		d := wl.drv()
		d.store, d.scope = store, scope
		d.resumeIter = resumeIter
		d.replaced = replaced[r.ID]
		states[r.ID] = wl
		traces[r.ID], errs[r.ID] = d.runLoop(wl)
		d.rec.Faults = r.Faults
		d.rec.Retries = d.retries
		d.rec.Recovery = d.recovery
	})
	return states, traces, errs
}

// runCommon is the workload-agnostic outcome of Engine.execute: everything a
// public entry point (Run, RunWCC, RunKCore, RunSSSP) needs to assemble its
// result type.
type runCommon struct {
	states       []workload
	trace        []IterTrace
	time         time.Duration
	recorder     *stats.Recorder
	perRank      []*stats.Recorder
	faults       comm.FaultStats
	retries      int64
	recoveryTime time.Duration
	recovery     stats.RecoveryStats
	scopeName    string
	err          error
}

// execute is the shared run skeleton behind every workload entry point:
// checkpoint store/scope setup (scope named "run%03d-<suffix>"), the world
// epoch loop with fail-stop detection, world rebuild and checkpoint resume,
// trace stitching onto the absolute iteration axis, and the recovery/fault
// accounting fold. A returned error means the run never started (store
// setup failed); an error from the run itself lands in runCommon.err with
// the partial accounting intact.
func (e *Engine) execute(suffix string, spanArgs map[string]int64, mk workloadFactory) (*runCommon, error) {
	rc := &runCommon{recorder: &stats.Recorder{}}
	rc.recovery.LastResumeIter = -2

	var store *checkpoint.Store
	var scope *checkpoint.RunScope
	resumeIter := int64(-2) // -2 = fresh start (bootstrap the workload)
	if e.Opt.CheckpointDir != "" {
		var err error
		store, err = checkpoint.Open(e.Opt.CheckpointDir)
		if err != nil {
			return nil, err
		}
		segs, bytes, err := e.ensureGraphTier(store)
		if err != nil {
			return nil, err
		}
		rc.recovery.CheckpointSegments += segs
		rc.recovery.CheckpointBytes += bytes
		name, resuming := e.resumeFrom, e.resumeFrom != ""
		e.resumeFrom = ""
		if !resuming {
			name = fmt.Sprintf("run%03d-%s", e.runSeq, suffix)
			e.runSeq++
		}
		scope, err = store.Scope(name)
		if err != nil {
			return nil, err
		}
		if resuming {
			if it, ok := scope.LatestComplete(e.Opt.Ranks); ok {
				resumeIter = it
			}
		}
	}

	start := time.Now()
	var runT0 int64
	if e.tr != nil {
		runT0 = e.tr.Now()
		e.tr.Emit(trace.Span{Kind: trace.KindEvent, Iter: -1, Step: -1,
			Name: "run_start", Start: runT0, Args: spanArgs})
	}
	replaced := map[int]bool{}
	var full []IterTrace
	var states []workload
	var runErr error
	for {
		if resumeIter >= -1 {
			rc.recovery.LastResumeIter = resumeIter
		}
		var traces [][]IterTrace
		var errs []error
		states, traces, errs = e.runEpoch(mk, store, scope, resumeIter, replaced)
		var maxReplay time.Duration
		for _, wl := range states {
			if wl == nil { // remote rank on a distributed world
				continue
			}
			d := wl.drv()
			rc.recorder.Merge(d.rec)
			if d.recovery > rc.recoveryTime {
				rc.recoveryTime = d.recovery
			}
			if d.replayDur > maxReplay {
				maxReplay = d.replayDur
			}
		}
		rc.recovery.RecoveryTime += maxReplay

		// Stitch this epoch's trace onto the absolute iteration axis: the
		// epoch re-executed everything past the checkpoint it resumed from.
		startAbs := int(resumeIter) + 1
		if resumeIter == -2 {
			startAbs = 0
		}
		if startAbs < len(full) {
			full = full[:startAbs]
		}
		for _, tr := range traces { // first hosted rank's trace (identical on all)
			if tr != nil {
				full = append(full, tr...)
				break
			}
		}

		dead := deadRanks(errs)
		localErr := firstErr(errs)
		code := outcomeOK
		if len(dead) == 0 && localErr != nil {
			code = outcomeFatal
			if errors.Is(localErr, ErrDrained) {
				code = outcomeDrained
			}
		}
		if e.World.Distributed() {
			// Agree on this epoch's verdict across every process, spares
			// included: a spare hosts no ranks, so its local errs say nothing
			// — without the exchange it would spin into the next epoch while
			// survivors stop, or stop while survivors rebuild. The exchange
			// also propagates process-local fatal errors (and drain verdicts)
			// that the per-iteration vote cannot carry, so one process's
			// failure ends the run everywhere instead of hanging its peers.
			dead, code = e.World.ExchangeOutcome(dead, code)
			switch {
			case code == outcomeDrained && !errors.Is(localErr, ErrDrained):
				localErr = fmt.Errorf("core: drained by a remote process: %w", ErrDrained)
			case code == outcomeFatal && localErr == nil:
				localErr = fmt.Errorf("core: run failed on a remote process: %w", errRemoteFatal)
			}
		}
		if len(dead) == 0 || code != outcomeOK {
			// A drained or fatal verdict ends the run even when ranks died in
			// the same epoch: the process that raised it has already left the
			// epoch loop (its outcome frame revoked the epoch on every peer),
			// so rebuilding would wedge waiting for it. The code is agreed by
			// the exchange, so every process breaks here together.
			runErr = localErr
			break
		}

		// Fail-stop recovery: rebuild the world, pick the resume point.
		recStart := time.Now()
		var recT0 int64
		if e.tr != nil {
			recT0 = e.tr.Now()
		}
		rc.recovery.Epochs++
		rc.recovery.RanksLost += int64(len(dead))
		if rc.recovery.Epochs > int64(e.Opt.Ranks) {
			runErr = fmt.Errorf("core: %d world epochs exhausted: %w: %w",
				rc.recovery.Epochs, ErrNoConvergence, comm.ErrRankDead)
			break
		}
		nw, err := e.World.NextEpoch(dead, e.Opt.Recovery.rebuild())
		if err != nil {
			runErr = err
			break
		}
		e.World = nw
		replaced = map[int]bool{}
		for _, d := range dead {
			replaced[d] = true
		}
		resumeIter = -2
		// Every surviving process must have flushed and closed its checkpoint
		// writers before any process picks the resume point, or two processes
		// could disagree on the latest complete iteration and replay divergent
		// prefixes. Dead processes count as arrived at the fence.
		e.World.Fence()
		if scope != nil {
			if it, ok := scope.LatestComplete(e.Opt.Ranks); ok {
				resumeIter = it
			}
		}
		replayFrom := resumeIter + 1
		if resumeIter == -2 {
			replayFrom = 0
		}
		if completed := int64(len(full)); completed > replayFrom {
			rc.recovery.IterationsReplayed += completed - replayFrom
		}
		rc.recovery.RecoveryTime += time.Since(recStart)
		if e.tr != nil {
			e.tr.Emit(trace.Span{Kind: trace.KindRecovery,
				Epoch: int(rc.recovery.Epochs), Iter: resumeIter, Step: -1,
				Name: "world_rebuild", Start: recT0, Dur: e.tr.Now() - recT0,
				Args: map[string]int64{"ranks_lost": int64(len(dead))}})
		}
	}
	rc.time = time.Since(start)
	if e.tr != nil {
		sp := trace.Span{Kind: trace.KindEvent, Epoch: int(rc.recovery.Epochs),
			Iter: -1, Step: -1, Name: "run", Start: runT0, Dur: e.tr.Now() - runT0}
		if runErr != nil {
			sp.Err = 1
		}
		e.tr.Emit(sp)
	}

	rc.states = states
	rc.trace = full
	for _, wl := range states {
		if wl == nil {
			continue
		}
		rc.perRank = append(rc.perRank, wl.drv().rec)
	}
	rc.faults = rc.recorder.Faults
	rc.retries = rc.recorder.Retries
	// Fold the rank-side accounting (checkpoint writers, replay bytes) into
	// the engine-side recovery record; Add leaves LastResumeIter alone.
	rc.recovery.Add(&rc.recorder.FailStop)
	rc.recorder.FailStop = rc.recovery
	rc.err = runErr
	if runErr == nil {
		if scope != nil {
			if e.Opt.KeepCheckpoints {
				rc.scopeName = scope.Name()
			} else {
				// All processes' writers must be closed before the scope
				// disappears, and only one process prunes the shared store.
				e.World.Fence()
				if e.distLeader() {
					_ = scope.Remove()
				}
			}
		}
	} else if scope != nil {
		// A failed run keeps its scope: it is the restart path (ResumeFrom).
		rc.scopeName = scope.Name()
	}
	return rc, nil
}

// Run executes one BFS from root and assembles the global result: a batch of
// one (RunBatch), with the batch's per-rank breakdowns and iteration trace.
// Under a fault transport the run may fail even after retries; the Result is
// still returned alongside the error so callers can inspect the fault and
// retry accounting of the doomed run.
//
// A fail-stop (a Kill fault) does not fail the run when CheckpointDir is set:
// the engine detects the agreed-dead ranks, rebuilds the world as a new epoch
// (Options.Recovery selects shrink vs restore), replays every rank from the
// latest complete checkpoint and continues, recording the cost in
// Result.Recovery. With checkpointing off, recovery degrades to a full
// restart of the traversal under the new world.
func (e *Engine) Run(root int64) (*Result, error) {
	br, err := e.RunBatch([]int64{root})
	if br == nil {
		return nil, err
	}
	res := br.Queries[0]
	res.Iterations = br.Iterations
	res.PerRank = br.PerRank
	res.Trace = br.Trace
	return res, err
}

// countTraversedEdges sums degrees of reachable vertices / 2 (each undirected
// non-loop edge inside the component contributes its two endpoints' degree
// increments; edges cannot leave the component in a completed BFS).
func (e *Engine) countTraversedEdges(parent []int64) int64 {
	var sum int64
	for v, p := range parent {
		if p >= 0 {
			sum += e.Part.Degrees[v]
		}
	}
	return sum / 2
}
