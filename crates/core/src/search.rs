//! The fusion search engine (paper §IV-C3, Algorithm 2).
//!
//! `EnumerateAllCandidates -> PruneCandidates -> DataflowAnalyzer ->
//! CalculateCost -> UpdateTopKList -> ProfileBestFromList`.
//!
//! The engine ranks every feasible candidate with the analytical cost
//! model, keeps the best `K` (the paper selects `K = 11` from Fig. 12b),
//! and then asks a [`PlanProfiler`] — the simulator — to measure those
//! finalists and pick the winner.
//!
//! # The walk
//!
//! Candidates are not generated one by one from the
//! [`CandidateStream`]'s total order. The engine walks the space tile
//! → cluster → schedule ([`CandidateStream::walk_tile`]): a tile that
//! breaks a register or SMEM limit rejects all of its cluster x schedule
//! candidates at once, and a (tile, cluster) pair that does not divide
//! the problem rejects all of its schedules. Only the survivors get a
//! [`PlanGeometry`], the analyzer's admissibility check and — if they
//! pass — the prefilter and a full analysis. [`SearchStats::feasible`]
//! counts every admitted candidate, so it is exact and equals the Table
//! III Rule 5 count ([`crate::prune::count_cascade`]).
//!
//! # Parallel ranking
//!
//! Each candidate is a pure function of `(chain, schedule, cluster,
//! tile)`. Workers claim tile tuples from one shared atomic counter, each
//! with its own [`DataflowAnalyzer`] and [`CostModel`], and the
//! per-worker bounded top-K buffers are merged at the end. Every
//! comparison orders by `(est, seq)` — cost first, then the candidate's
//! position in the stream's total order (`Candidate::seq`) — so the
//! merged result is the exact top-K of the whole space under that order,
//! **bit-identical** for every thread count and visit order — see
//! [`SearchConfig::threads`].
//!
//! # Lower-bound prefilter
//!
//! Before running the (comparatively expensive) dataflow analysis, the
//! engine computes [`CostModel::lower_bound_for`] — an admissible bound
//! from the plan geometry alone. Once a worker's top-K buffer is full, a
//! candidate is skipped when even its bound orders after the buffer's
//! worst entry under `(est, seq)`. Ties on the bound are decided by
//! `seq`, because the walk does not visit candidates in `seq` order.
//! Because the bound never exceeds the true cost, the skip can never
//! evict a would-be finalist: results with the prefilter on are
//! identical to results with it off ([`SearchConfig::prefilter`];
//! [`SearchConfig::prefilter_relax`] is the escape hatch should the cost
//! model and the bound ever drift apart).

use crate::analyzer::{DataflowAnalysis, DataflowAnalyzer};
use crate::cost::{CostBreakdown, CostModel};
use crate::machine::{MachineDescriptor, MemLevel};
use crate::plan::PlanGeometry;
use crate::profiler::{PlanProfiler, ProfileOutcome};
use crate::prune::{Candidate, CandidateStream, PruneConfig};
use crate::schedule::LoopSchedule;
use flashfuser_graph::ChainSpec;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Search-engine configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Top-K candidates forwarded to profiling. The paper uses 11.
    pub top_k: usize,
    /// Pruning configuration (cluster limit, lowest spill tier).
    pub prune: PruneConfig,
    /// Worker threads for candidate ranking, brute-force profiling and
    /// top-K profiling. `0` (the default) uses every available core;
    /// `1` forces the sequential path. Results are identical for every
    /// value — parallel merges are deterministic.
    pub threads: usize,
    /// Skip dataflow analysis for candidates whose admissible cost lower
    /// bound ([`CostModel::lower_bound`]) orders after the current top-K
    /// worst. Provably never changes the search result; on by default.
    pub prefilter: bool,
    /// Relaxation factor in `(0, 1]` applied to the lower bound before
    /// the skip comparison — the escape hatch if the cost model evolves
    /// ahead of the bound. `1.0` (default) trusts the bound fully;
    /// smaller values prune more conservatively; `0.0` disables pruning
    /// while the walk still skips infeasible candidates.
    pub prefilter_relax: f64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            top_k: 11,
            prune: PruneConfig::default(),
            threads: 0,
            prefilter: true,
            prefilter_relax: 1.0,
        }
    }
}

impl SearchConfig {
    /// A configuration restricted to a single SM's resources (no DSM) —
    /// how SMEM-only baselines search.
    pub fn smem_only() -> Self {
        Self {
            prune: PruneConfig {
                max_cluster: 1,
                lowest_spill: MemLevel::Smem,
                allow_inter_cluster_reduce: false,
            },
            ..Self::default()
        }
    }

    /// This configuration with an explicit thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// This configuration with the prefilter toggled (builder style).
    pub fn with_prefilter(mut self, enabled: bool) -> Self {
        self.prefilter = enabled;
        self
    }

    /// The worker count the engine will actually use: `threads`, or every
    /// available core when `threads == 0`.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_threads()
        }
    }

    /// Stable content fingerprint of every field that can change the
    /// search *result*. Part of the plan-cache key.
    ///
    /// `threads` is deliberately excluded: the parallel merge is
    /// deterministic, so the result is identical for every thread count
    /// and a plan searched on one host stays valid on another. The
    /// prefilter knobs are included — provably result-neutral today,
    /// but they are exactly the escape hatch for when the cost model
    /// and the bound drift, at which point they must key the cache.
    pub fn fingerprint(&self) -> u64 {
        let mut h = flashfuser_graph::StableHasher::new();
        h.write_usize(self.top_k);
        h.write_usize(self.prune.max_cluster);
        h.write_usize(self.prune.lowest_spill.index());
        h.write_u8(u8::from(self.prune.allow_inter_cluster_reduce));
        h.write_u8(u8::from(self.prefilter));
        h.write_f64_bits(self.prefilter_relax);
        h.finish()
    }
}

/// One ranked candidate: analysis, analytical cost, and (if profiled)
/// the measured outcome.
#[derive(Debug, Clone)]
pub struct RankedPlan {
    /// The analyzed plan.
    pub analysis: DataflowAnalysis,
    /// Cost-model breakdown.
    pub cost: CostBreakdown,
    /// Analytical estimate in seconds (`cost.est_s`, denormalised for
    /// sorting).
    pub est_seconds: f64,
    /// Measured outcome after profiling, if any.
    pub measured: Option<ProfileOutcome>,
}

/// Search statistics (feeds Tables III and VIII).
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchStats {
    /// Candidates in the stream after Rules 1–4 (`CandidateStream::len`).
    pub considered: u64,
    /// Candidates the analyzer accepts (survived Rule 5) — every one the
    /// walk admits, whether or not the prefilter then skipped it. Exact:
    /// the same for every thread count and equal to
    /// [`crate::prune::count_cascade`]'s `after_rule5`.
    pub feasible: u64,
    /// Feasible candidates skipped by the lower-bound prefilter (all of
    /// them provably unable to enter the top-K). The count depends on
    /// how fast each worker's threshold tightens, so it varies with
    /// thread count and scan interleaving; it never enters a plan
    /// record.
    pub prefiltered: u64,
    /// Worker threads used for ranking.
    pub threads: usize,
    /// Wall-clock seconds spent in enumeration + analysis + ranking.
    pub analysis_seconds: f64,
    /// Wall-clock seconds spent profiling the top-K.
    pub profiling_seconds: f64,
}

impl SearchStats {
    /// Ranking throughput in candidates per second.
    pub fn candidates_per_second(&self) -> f64 {
        if self.analysis_seconds <= 0.0 {
            return 0.0;
        }
        self.considered as f64 / self.analysis_seconds
    }
}

/// Search failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// No candidate survived pruning and analysis.
    NoFeasiblePlan,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::NoFeasiblePlan => write!(f, "no feasible fusion plan found"),
        }
    }
}

impl Error for SearchError {}

/// The result of a search: top-K plans ordered by analytical cost, plus
/// the index of the winner (by measurement when profiled, else rank 0).
#[derive(Debug, Clone)]
pub struct SearchResult {
    top_k: Vec<RankedPlan>,
    best_idx: usize,
    stats: SearchStats,
}

impl SearchResult {
    /// The winning plan.
    pub fn best(&self) -> &RankedPlan {
        &self.top_k[self.best_idx]
    }

    /// All finalists, best analytical estimate first.
    pub fn top_k(&self) -> &[RankedPlan] {
        &self.top_k
    }

    /// Index of the winner within [`SearchResult::top_k`].
    pub fn best_index(&self) -> usize {
        self.best_idx
    }

    /// Statistics of the run.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }
}

/// A scored candidate inside a worker's bounded top-K buffer: analytical
/// estimate plus the stream position that breaks ties deterministically.
struct Scored {
    est: f64,
    seq: u64,
    cost: CostBreakdown,
    analysis: DataflowAnalysis,
}

/// `true` when `(a_est, a_seq)` orders strictly before `(b_est, b_seq)`
/// in the engine's total candidate order (cost first, stream position as
/// the tie break). `est` values are finite by construction.
fn orders_before(a_est: f64, a_seq: u64, b_est: f64, b_seq: u64) -> bool {
    a_est < b_est || (a_est == b_est && a_seq < b_seq)
}

/// The prefilter's test: `false` only when a candidate whose estimate is
/// at least `bound` provably orders after `worst` — so it cannot enter
/// a full top-K buffer whose last entry is `worst`. Ties on the bound
/// are decided by `seq` like every other comparison: the walk is not in
/// `seq` order, so a candidate with `est == bound == worst.est` and a
/// smaller `seq` must still enter.
fn can_enter(bound: f64, seq: u64, worst: &Scored) -> bool {
    orders_before(bound, seq, worst.est, worst.seq)
}

/// Inserts `s` into the sorted bounded buffer `top` (capacity `k`).
fn push_top_k(top: &mut Vec<Scored>, k: usize, s: Scored) {
    if top.len() == k {
        let w = top.last().expect("k >= 1");
        if !orders_before(s.est, s.seq, w.est, w.seq) {
            return;
        }
    }
    let pos = top.partition_point(|p| orders_before(p.est, p.seq, s.est, s.seq));
    top.insert(pos, s);
    top.truncate(k);
}

/// One brute-force worker's output: its best `(seconds, seq, plan)`
/// (if any candidate in its share was feasible) plus its profile-call
/// count.
type BruteShard = (Option<(f64, u64, RankedPlan)>, u64);

/// One ranking worker's output.
struct RankShard {
    top: Vec<Scored>,
    feasible: u64,
    prefiltered: u64,
}

/// The fusion search engine.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    params: MachineDescriptor,
}

impl SearchEngine {
    /// Creates an engine for the given machine.
    pub fn new(params: MachineDescriptor) -> Self {
        Self { params }
    }

    /// The machine parameters in use.
    pub fn params(&self) -> &MachineDescriptor {
        &self.params
    }

    /// Analytical search: enumerate, prune, analyze, rank. The winner is
    /// the cost-model rank-1 plan (no profiling).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when nothing survives.
    pub fn search(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
    ) -> Result<SearchResult, SearchError> {
        let (top_k, stats) = self.rank_candidates(chain, config);
        if top_k.is_empty() {
            return Err(SearchError::NoFeasiblePlan);
        }
        Ok(SearchResult {
            top_k,
            best_idx: 0,
            stats,
        })
    }

    /// Full Algorithm 2: rank candidates, then profile the top-K and
    /// select the measured-fastest (`ProfileBestFromList`). Finalists are
    /// profiled concurrently when the profiler supports
    /// [`PlanProfiler::fork`]; the winner (minimum measured seconds,
    /// earlier rank on ties) is identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when nothing survives.
    pub fn search_with_profiler(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
        profiler: &mut dyn PlanProfiler,
    ) -> Result<SearchResult, SearchError> {
        let (mut top_k, mut stats) = self.rank_candidates(chain, config);
        if top_k.is_empty() {
            return Err(SearchError::NoFeasiblePlan);
        }
        let t0 = Instant::now();
        let outcomes = profile_all(profiler, &top_k, config.effective_threads());
        let mut best_idx = 0;
        let mut best_time = f64::INFINITY;
        for (i, (ranked, outcome)) in top_k.iter_mut().zip(outcomes).enumerate() {
            if outcome.seconds < best_time {
                best_time = outcome.seconds;
                best_idx = i;
            }
            ranked.measured = Some(outcome);
        }
        stats.profiling_seconds = t0.elapsed().as_secs_f64();
        Ok(SearchResult {
            top_k,
            best_idx,
            stats,
        })
    }

    /// Brute force for Table VIII: profile *every* feasible candidate on
    /// the device and return the true optimum (minimum measured seconds;
    /// ties broken by stream position, so parallel and sequential runs
    /// agree exactly). Returns the winner, its outcome and the number of
    /// candidates profiled. The lower-bound prefilter is deliberately
    /// *not* applied here — brute force is the unfiltered ground truth
    /// the prefilter is validated against.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::NoFeasiblePlan`] when nothing survives.
    pub fn brute_force(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
        profiler: &mut dyn PlanProfiler,
    ) -> Result<(RankedPlan, u64), SearchError> {
        let all = LoopSchedule::enumerate_all();
        let stream = CandidateStream::build(chain, &config.prune, &all);
        let threads = worker_count(config, &stream);
        let next_tile = AtomicU64::new(0);

        let forks: Option<Vec<Box<dyn PlanProfiler + Send>>> = if threads > 1 {
            (0..threads).map(|_| profiler.fork()).collect()
        } else {
            None
        };

        let (best, profiled) = match forks {
            Some(forks) => {
                let shards = fan_out(forks, |mut fork| {
                    self.brute_shard(chain, config, &stream, &next_tile, fork.as_mut())
                });
                let mut best: Option<(f64, u64, RankedPlan)> = None;
                let mut profiled = 0u64;
                for (shard_best, shard_profiled) in shards {
                    profiler.join(shard_profiled);
                    profiled += shard_profiled;
                    if let Some((sec, seq, plan)) = shard_best {
                        let better = best
                            .as_ref()
                            .is_none_or(|(bs, bq, _)| orders_before(sec, seq, *bs, *bq));
                        if better {
                            best = Some((sec, seq, plan));
                        }
                    }
                }
                (best, profiled)
            }
            None => self.brute_shard(chain, config, &stream, &next_tile, profiler),
        };
        best.map(|(_, _, plan)| (plan, profiled))
            .ok_or(SearchError::NoFeasiblePlan)
    }

    /// Claims tile tuples until the walk is exhausted, analyzing and
    /// profiling every admitted candidate; keeps the best
    /// `(seconds, seq)`.
    fn brute_shard(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
        stream: &CandidateStream<'_>,
        next_tile: &AtomicU64,
        profiler: &mut dyn PlanProfiler,
    ) -> BruteShard {
        let analyzer = config.prune.analyzer(&self.params);
        let cost_model = CostModel::new(self.params.clone());
        let mut best: Option<(f64, u64, RankedPlan)> = None;
        let mut profiled = 0u64;
        while let Some(t) = claim_tile(next_tile, stream) {
            stream.walk_tile(chain, &analyzer, t, |cand, geometry| {
                let analysis = analyze_admitted(&analyzer, chain, cand, geometry);
                let outcome = profiler.profile(analysis.plan());
                profiled += 1;
                let better = best
                    .as_ref()
                    .is_none_or(|(bs, bq, _)| orders_before(outcome.seconds, cand.seq, *bs, *bq));
                if better {
                    let cost = cost_model.evaluate(&analysis);
                    best = Some((
                        outcome.seconds,
                        cand.seq,
                        RankedPlan {
                            est_seconds: cost.est_s,
                            cost,
                            analysis,
                            measured: Some(outcome),
                        },
                    ));
                }
            });
        }
        (best, profiled)
    }

    /// Ranks every candidate of the stream with the analytical cost
    /// model, in parallel, returning the deterministic global top-K.
    fn rank_candidates(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
    ) -> (Vec<RankedPlan>, SearchStats) {
        let t0 = Instant::now();
        let all = LoopSchedule::enumerate_all();
        let stream = CandidateStream::build(chain, &config.prune, &all);
        let k = config.top_k.max(1);
        let threads = worker_count(config, &stream);
        let next_tile = AtomicU64::new(0);
        let shards = fan_out(vec![(); threads], |()| {
            self.rank_shard(chain, config, &stream, &next_tile, k)
        });

        let mut stats = SearchStats {
            considered: stream.len(),
            threads,
            ..SearchStats::default()
        };
        let mut merged: Vec<Scored> = Vec::with_capacity(k * shards.len());
        for shard in shards {
            stats.feasible += shard.feasible;
            stats.prefiltered += shard.prefiltered;
            merged.extend(shard.top);
        }
        // The deterministic merge: global order is (est, seq); each shard
        // already holds the best k of its tiles under that order.
        merged.sort_by(|a, b| a.est.total_cmp(&b.est).then_with(|| a.seq.cmp(&b.seq)));
        merged.truncate(k);
        let top_k = merged
            .into_iter()
            .map(|s| RankedPlan {
                est_seconds: s.est,
                cost: s.cost,
                analysis: s.analysis,
                measured: None,
            })
            .collect();
        stats.analysis_seconds = t0.elapsed().as_secs_f64();
        (top_k, stats)
    }

    /// Claims tile tuples until the walk is exhausted, ranking their
    /// admitted candidates on one thread with its own analyzer and cost
    /// model.
    fn rank_shard(
        &self,
        chain: &ChainSpec,
        config: &SearchConfig,
        stream: &CandidateStream<'_>,
        next_tile: &AtomicU64,
        k: usize,
    ) -> RankShard {
        let analyzer = config.prune.analyzer(&self.params);
        let cost_model = CostModel::new(self.params.clone());
        let mut shard = RankShard {
            top: Vec::with_capacity(k + 1),
            feasible: 0,
            prefiltered: 0,
        };
        while let Some(t) = claim_tile(next_tile, stream) {
            stream.walk_tile(chain, &analyzer, t, |cand, geometry| {
                // Every admitted candidate counts, skipped or not: the
                // count is a property of the space, not of the scan.
                shard.feasible += 1;
                if config.prefilter && shard.top.len() == k {
                    let lb = cost_model.lower_bound_for(chain, geometry, cand.cluster, cand.tile);
                    let worst = shard.top.last().expect("k >= 1");
                    if !can_enter(lb * config.prefilter_relax, cand.seq, worst) {
                        shard.prefiltered += 1;
                        return;
                    }
                }
                let analysis = analyze_admitted(&analyzer, chain, cand, geometry);
                let cost = cost_model.evaluate(&analysis);
                push_top_k(
                    &mut shard.top,
                    k,
                    Scored {
                        est: cost.est_s,
                        seq: cand.seq,
                        cost,
                        analysis,
                    },
                );
            });
        }
        shard
    }
}

/// Every available core, falling back to 1 when parallelism cannot be
/// queried — the single resolver behind every "`0` means all cores"
/// knob (search workers, batch workers).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves the worker count for a stream: the configured thread count,
/// capped so no worker would start without a tile tuple to claim.
fn worker_count(config: &SearchConfig, stream: &CandidateStream<'_>) -> usize {
    config
        .effective_threads()
        .min(usize::try_from(stream.tile_count()).unwrap_or(usize::MAX))
        .max(1)
}

/// Claims the next unwalked tile tuple, or `None` once all are taken.
fn claim_tile(next_tile: &AtomicU64, stream: &CandidateStream<'_>) -> Option<u64> {
    let t = next_tile.fetch_add(1, Ordering::Relaxed);
    (t < stream.tile_count()).then_some(t)
}

/// Runs the dataflow analysis of a candidate the walk admitted.
fn analyze_admitted(
    analyzer: &DataflowAnalyzer,
    chain: &ChainSpec,
    cand: Candidate<'_>,
    geometry: &PlanGeometry,
) -> DataflowAnalysis {
    analyzer
        .analyze_with_geometry(chain, cand.schedule, cand.cluster, cand.tile, *geometry)
        .expect("the walk admits only candidates the analyzer accepts")
}

/// Runs `work` once per input — on scoped worker threads when there is
/// more than one — and returns the outputs in input order.
fn fan_out<I: Send, T: Send>(inputs: Vec<I>, work: impl Fn(I) -> T + Sync) -> Vec<T> {
    if inputs.len() <= 1 {
        return inputs.into_iter().map(work).collect();
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .into_iter()
            .map(|input| scope.spawn(move || work(input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker panicked"))
            .collect()
    })
}

/// Profiles every finalist, in rank order, forking the profiler across
/// worker threads when it supports that; outcomes come back indexed so
/// the caller's rank order is preserved.
fn profile_all(
    profiler: &mut dyn PlanProfiler,
    top_k: &[RankedPlan],
    threads: usize,
) -> Vec<ProfileOutcome> {
    let threads = threads.min(top_k.len()).max(1);
    if threads > 1 {
        let forks: Option<Vec<Box<dyn PlanProfiler + Send>>> =
            (0..threads).map(|_| profiler.fork()).collect();
        if let Some(forks) = forks {
            let chunk = top_k.len().div_ceil(threads);
            let work: Vec<_> = forks.into_iter().zip(top_k.chunks(chunk)).collect();
            let shards = fan_out(work, |(mut fork, plans)| {
                plans
                    .iter()
                    .map(|p| fork.profile(p.analysis.plan()))
                    .collect::<Vec<_>>()
            });
            let mut outcomes = Vec::with_capacity(top_k.len());
            for shard in shards {
                profiler.join(shard.len() as u64);
                outcomes.extend(shard);
            }
            return outcomes;
        }
    }
    top_k
        .iter()
        .map(|p| profiler.profile(p.analysis.plan()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::FakeProfiler;
    use flashfuser_tensor::Activation;

    fn small_chain() -> ChainSpec {
        ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu)
    }

    fn engine() -> SearchEngine {
        SearchEngine::new(MachineDescriptor::h100_sxm())
    }

    #[test]
    fn search_returns_sorted_top_k() {
        let result = engine()
            .search(&small_chain(), &SearchConfig::default())
            .unwrap();
        let costs: Vec<f64> = result.top_k().iter().map(|p| p.est_seconds).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]), "{costs:?}");
        assert!(result.top_k().len() <= 11);
        assert_eq!(result.best_index(), 0);
        assert!(result.stats().feasible > 0);
        assert!(result.stats().considered >= result.stats().feasible);
    }

    #[test]
    fn profiled_search_may_pick_non_rank1() {
        let mut profiler = FakeProfiler::default();
        let result = engine()
            .search_with_profiler(&small_chain(), &SearchConfig::default(), &mut profiler)
            .unwrap();
        assert_eq!(profiler.calls, result.top_k().len());
        // Every finalist was measured; the winner minimises measured time.
        let best = result.best().measured.unwrap().seconds;
        for p in result.top_k() {
            assert!(best <= p.measured.unwrap().seconds + 1e-18);
        }
    }

    #[test]
    fn smem_only_config_still_finds_small_plans() {
        // A small chain fits SMEM-only fusion — the Chimera regime.
        let result = engine()
            .search(&small_chain(), &SearchConfig::smem_only())
            .unwrap();
        assert!(result.best().analysis.plan().cluster.blocks() == 1);
    }

    #[test]
    fn smem_only_fusion_unprofitable_on_large_intermediates() {
        // OPT-1.3B-sized chain: without DSM the only surviving "fused"
        // plans re-stream inputs so heavily that they move *more* global
        // data than the unfused round trip — fusion fails in the
        // profitable sense of Fig. 5 — while the DSM search finds a plan
        // that moves less.
        let big = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let smem = engine().search(&big, &SearchConfig::smem_only()).unwrap();
        let smem_traffic = smem.best().analysis.volume(MemLevel::Global);
        assert!(
            smem_traffic > big.unfused_global_bytes(),
            "smem-only fused {} should exceed unfused {}",
            smem_traffic,
            big.unfused_global_bytes()
        );
        let dsm = engine().search(&big, &SearchConfig::default()).unwrap();
        let dsm_traffic = dsm.best().analysis.volume(MemLevel::Global);
        assert!(
            dsm_traffic < big.unfused_global_bytes(),
            "dsm fused {} should beat unfused {}",
            dsm_traffic,
            big.unfused_global_bytes()
        );
        assert!(dsm_traffic < smem_traffic);
    }

    #[test]
    fn best_dsm_plan_actually_uses_dsm_for_big_chains() {
        let big = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let result = engine().search(&big, &SearchConfig::default()).unwrap();
        assert!(result.best().analysis.plan().cluster.blocks() > 1);
    }

    #[test]
    fn brute_force_at_least_matches_topk_choice() {
        let chain = small_chain();
        let config = SearchConfig::default();
        let mut p1 = FakeProfiler::default();
        let guided = engine()
            .search_with_profiler(&chain, &config, &mut p1)
            .unwrap();
        let mut p2 = FakeProfiler::default();
        let (brute, profiled) = engine().brute_force(&chain, &config, &mut p2).unwrap();
        assert!(profiled >= guided.top_k().len() as u64);
        assert_eq!(p2.calls as u64, profiled);
        assert!(brute.measured.unwrap().seconds <= guided.best().measured.unwrap().seconds + 1e-18);
    }

    #[test]
    fn top_k_of_one_works() {
        let config = SearchConfig {
            top_k: 1,
            ..SearchConfig::default()
        };
        let result = engine().search(&small_chain(), &config).unwrap();
        assert_eq!(result.top_k().len(), 1);
    }

    #[test]
    fn single_thread_and_parallel_agree_exactly() {
        let chain = small_chain();
        let seq_cfg = SearchConfig::default().with_threads(1);
        let par_cfg = SearchConfig::default().with_threads(4);
        let a = engine().search(&chain, &seq_cfg).unwrap();
        let b = engine().search(&chain, &par_cfg).unwrap();
        assert_eq!(a.top_k().len(), b.top_k().len());
        for (x, y) in a.top_k().iter().zip(b.top_k()) {
            assert_eq!(x.est_seconds, y.est_seconds);
            assert_eq!(x.analysis.plan().summary(), y.analysis.plan().summary());
        }
    }

    #[test]
    fn prefilter_does_not_change_the_top_k() {
        let chain = small_chain();
        let on = engine()
            .search(&chain, &SearchConfig::default().with_prefilter(true))
            .unwrap();
        let off = engine()
            .search(&chain, &SearchConfig::default().with_prefilter(false))
            .unwrap();
        assert_eq!(on.top_k().len(), off.top_k().len());
        for (x, y) in on.top_k().iter().zip(off.top_k()) {
            assert_eq!(x.est_seconds, y.est_seconds);
            assert_eq!(x.analysis.plan().summary(), y.analysis.plan().summary());
        }
        assert!(
            on.stats().prefiltered > 0,
            "prefilter should fire on this chain"
        );
    }
    #[test]
    fn prefilter_keeps_a_tied_candidate_with_a_smaller_seq() {
        // On a DSM-less target every plan of a small cube chain is a
        // single block with no communication: compute-bound, zero
        // latency, so its estimate equals its lower bound and hundreds
        // of candidates tie exactly. The walk is tile-major, so the
        // first K it admits are not the K smallest `seq`s; every later
        // candidate ties the full buffer's worst on cost (`lb == est ==
        // worst.est`) and must still enter when its `seq` is smaller.
        let params = MachineDescriptor::a100_sxm();
        let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
        let config = SearchConfig {
            threads: 1,
            ..SearchConfig::smem_only()
        };
        let engine = SearchEngine::new(params.clone());
        let on = engine.search(&chain, &config).unwrap();
        let cost_model = CostModel::new(params.clone());
        let tied = on.top_k()[0].est_seconds;
        for p in on.top_k() {
            let plan = p.analysis.plan();
            let geometry = plan.geometry;
            let lb = cost_model.lower_bound_for(&chain, &geometry, plan.cluster, plan.tile);
            assert_eq!(p.est_seconds, tied, "the whole top-K ties on cost");
            assert_eq!(lb, p.est_seconds, "and on the lower bound");
        }

        // The survivors are the K smallest `seq`s the walk admits — the
        // tie-break a seq-ordered scan applies — not the first K visited.
        let all = LoopSchedule::enumerate_all();
        let stream = CandidateStream::build(&chain, &config.prune, &all);
        let analyzer = config.prune.analyzer(&params);
        let mut visited = Vec::new();
        stream.walk(&chain, &analyzer, |cand, _| visited.push(cand.seq));
        let mut smallest = visited.clone();
        smallest.sort_unstable();
        smallest.truncate(config.top_k);
        assert_ne!(
            visited[..config.top_k],
            smallest[..],
            "visit order must differ"
        );
        for (p, seq) in on.top_k().iter().zip(&smallest) {
            let want = stream.get(*seq).unwrap();
            let plan = p.analysis.plan();
            assert_eq!(
                (&plan.schedule, plan.cluster, plan.tile),
                (want.schedule, want.cluster, want.tile)
            );
        }
        assert!(on.stats().prefiltered > 0, "the prefilter must still fire");
        let off = engine
            .search(&chain, &config.clone().with_prefilter(false))
            .unwrap();
        for (x, y) in on.top_k().iter().zip(off.top_k()) {
            assert_eq!(x.analysis, y.analysis);
        }
    }
}
