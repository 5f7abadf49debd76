package graph500

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sssp"
)

// The Graph 500 benchmark's second kernel (SSSP) and the general-purpose
// analytics the paper's Discussion section positions as the natural
// extension of its techniques ("the push-pull selection behind it works on
// many graph algorithms, including SSSP, PageRank and more") run over the
// same 1.5D partitioning through the types below.

// SSSPResult re-exports the SSSP run result (distances, parents, rounds).
type SSSPResult = sssp.Result

// SSSPRunner holds a weighted partitioned graph. It runs delta-bucketed
// relaxation on the core engine's 1.5D fast path (adaptive sparse tail,
// retries, checkpointing), with the weight convention from internal/sssp.
type SSSPRunner struct {
	engine *core.Engine
	graph  Graph
	seed   uint64
}

// NewSSSP partitions the graph for single-source shortest paths with the
// Graph 500 weight convention: deterministic uniform [0,1) per edge, keyed
// by weightSeed.
func NewSSSP(g Graph, cfg Config, weightSeed uint64) (*SSSPRunner, error) {
	eng, err := core.NewEngine(g.NumVertices, g.Edges, cfg.coreOptions())
	if err != nil {
		return nil, err
	}
	return &SSSPRunner{engine: eng, graph: g, seed: weightSeed}, nil
}

// Run computes shortest paths from root.
func (s *SSSPRunner) Run(root int64) (*SSSPResult, error) {
	res, err := s.engine.RunSSSP(root, s.seed, 0)
	if err != nil {
		return nil, err
	}
	return &SSSPResult{
		Root:        root,
		Dist:        res.Dist,
		Parent:      res.Parent,
		Rounds:      res.Iterations,
		Time:        res.Time,
		Relaxations: res.Relaxations,
	}, nil
}

// RunValidated computes shortest paths and checks the optimality conditions
// (parent edges exist, distances are consistent, no edge can relax further).
func (s *SSSPRunner) RunValidated(root int64) (*SSSPResult, error) {
	res, err := s.Run(root)
	if err != nil {
		return nil, err
	}
	if err := sssp.ValidateResult(s.graph.NumVertices, s.graph.Edges, s.seed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// EdgeWeight returns the deterministic weight of edge {u,v} under this
// runner's seed.
func (s *SSSPRunner) EdgeWeight(u, v int64) float64 { return sssp.WeightOf(u, v, s.seed) }

// Analytics runs PageRank, connected components, k-core and reachability on
// the core engine's workload driver: the same 1.5D schedule, hub delegation,
// retries, checkpoints and trace spans as BFS and SSSP.
type Analytics struct {
	engine *core.Engine
}

// PageRankResult is a PageRank run's output (Rank, Iterations, Delta, Time
// plus the engine's accounting).
type PageRankResult = core.WorkloadResult

// WCCResult is a connected-components run's output (Label, Components,
// Iterations, Time plus the engine's accounting).
type WCCResult = core.WorkloadResult

// KCoreResult is a k-core run's output (InCore, CoreSize, Iterations, Time
// plus the engine's accounting).
type KCoreResult = core.WorkloadResult

// NewAnalytics partitions the graph for the analytics workloads.
func NewAnalytics(g Graph, cfg Config) (*Analytics, error) {
	eng, err := core.NewEngine(g.NumVertices, g.Edges, cfg.coreOptions())
	if err != nil {
		return nil, err
	}
	return &Analytics{engine: eng}, nil
}

// PageRank runs damped power iteration until the L1 change drops to tol or
// maxIter rounds elapse.
func (a *Analytics) PageRank(damping, tol float64, maxIter int) (*PageRankResult, error) {
	return a.engine.RunPageRank(damping, tol, maxIter)
}

// ConnectedComponents labels every vertex with its component's minimum ID.
// Iterations counts the final zero-change round that proves convergence.
func (a *Analytics) ConnectedComponents() (*WCCResult, error) {
	return a.engine.RunWCC()
}

// Reachability answers up to 64 reachability queries in one batched
// multi-source BFS sweep: result[v] has bit s set iff sources[s] reaches v.
func (a *Analytics) Reachability(sources []int64) ([]uint64, error) {
	if len(sources) == 0 || len(sources) > 64 {
		return nil, fmt.Errorf("graph500: Reachability needs 1..64 sources, got %d", len(sources))
	}
	n := a.engine.Part.Layout.N
	for _, v := range sources {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("graph500: source %d out of [0,%d)", v, n)
		}
	}
	res, err := a.engine.RunBatch(sources)
	if err != nil {
		return nil, err
	}
	masks := make([]uint64, n)
	for s, q := range res.Queries {
		for v, p := range q.Parent {
			if p >= 0 {
				masks[v] |= 1 << uint(s)
			}
		}
	}
	return masks, nil
}

// KCore returns membership of the k-core (maximal subgraph of minimum
// degree k), computed by distributed peeling with delegated hub degrees.
// Iterations counts the final round that peels nothing.
func (a *Analytics) KCore(k int64) (*KCoreResult, error) {
	return a.engine.RunKCore(k)
}
