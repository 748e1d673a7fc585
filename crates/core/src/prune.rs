//! Pruning rules 1–5 (paper §IV-C2, Table III).
//!
//! * **Rule 1 — divisible tile sizes** (from MCFuser): tiles are
//!   hardware-aware multiples of one MMA that evenly divide the problem.
//! * **Rule 2 — cluster size constraint**: `cls_m*cls_n*cls_k ≤ 16` with
//!   integral shuffle/reduce groupings, and one shared cluster shape for
//!   both GEMMs (guaranteed by construction here).
//! * **Rule 3 — activation constraint**: a temporal K must be the
//!   innermost loop so the activation sees complete sums.
//! * **Rule 4 — dependency constraint**: L must not be grid-spatial —
//!   spatially separated L tiles would all need the whole intermediate
//!   with no communication path (intra-cluster L parallelism via `cls_l`
//!   remains available).
//! * **Rule 5 — memory capacity**: accumulators fit registers, the
//!   streaming working set fits SMEM, and the reused strip fits at or
//!   above the configured lowest spill tier. Enforced by the analyzer's
//!   own admissibility check ([`DataflowAnalyzer::admit`]), so the count
//!   is exact.
//!
//! The [`CandidateStream`] holds the space after Rules 1–4. Its walk
//! applies Rule 5 and the residual geometry checks level by level —
//! per tile, per (tile, cluster), per schedule — so a rejected tile or
//! cluster never generates its candidates; the search engine, brute
//! force and [`count_cascade`] all enumerate through it.

use crate::analyzer::DataflowAnalyzer;
use crate::machine::{MachineDescriptor, MemLevel};
use crate::plan::PlanGeometry;
use crate::schedule::LoopSchedule;
use crate::space;
use crate::tiling::{hardware_aware_tiles, BlockTile};
use flashfuser_comm::ClusterShape;
use flashfuser_graph::{ChainSpec, Dim};
use std::fmt;

/// Configuration of the pruning cascade.
#[derive(Debug, Clone)]
pub struct PruneConfig {
    /// Hardware cluster-size limit (Rule 2); 16 on H100, 1 disables DSM.
    pub max_cluster: usize,
    /// Lowest tier the reused strip may occupy (Rule 5);
    /// [`MemLevel::Dsm`] for FlashFuser, [`MemLevel::Smem`] for
    /// SMEM-only baselines, [`MemLevel::Global`] for the spill-anywhere
    /// ablation.
    pub lowest_spill: MemLevel,
    /// Whether the target implements the TMA atomic `inter_cluster_reduce`
    /// path (Hopper-only; `false` for pre-Hopper baseline policies).
    pub allow_inter_cluster_reduce: bool,
}

impl PruneConfig {
    /// A dataflow analyzer enforcing this configuration's spill floor and
    /// inter-cluster-reduce availability.
    pub fn analyzer(&self, params: &MachineDescriptor) -> DataflowAnalyzer {
        DataflowAnalyzer::new(params.clone())
            .with_lowest_spill(self.lowest_spill)
            .with_inter_cluster_reduce(self.allow_inter_cluster_reduce)
    }
}

impl Default for PruneConfig {
    fn default() -> Self {
        Self {
            max_cluster: 16,
            lowest_spill: MemLevel::Dsm,
            allow_inter_cluster_reduce: true,
        }
    }
}

/// Candidate counts after each pruning step (one Table III column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStats {
    /// Raw space (`41 x 5^4 x Π S_d/16`), reported not iterated.
    pub initial: f64,
    /// After Rule 1 (divisible tiles).
    pub after_rule1: u64,
    /// After Rule 2 (legal cluster shapes).
    pub after_rule2: u64,
    /// After Rule 3 (temporal K innermost).
    pub after_rule3: u64,
    /// After Rule 4 (no grid-spatial L).
    pub after_rule4: u64,
    /// After Rule 5 (capacity-feasible; exact, via the analyzer).
    pub after_rule5: u64,
}

impl PruneStats {
    /// Total reduction factor from the initial space to after Rule 5.
    pub fn total_reduction(&self) -> f64 {
        if self.after_rule5 == 0 {
            return 1.0;
        }
        1.0 - self.after_rule5 as f64 / self.initial
    }
}

impl fmt::Display for PruneStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Original space   {:>14.3e}", self.initial)?;
        writeln!(f, "+ Rule 1         {:>14}", self.after_rule1)?;
        writeln!(f, "+ Rule 2         {:>14}", self.after_rule2)?;
        writeln!(f, "+ Rule 3         {:>14}", self.after_rule3)?;
        writeln!(f, "+ Rule 4         {:>14}", self.after_rule4)?;
        writeln!(f, "+ Rule 5         {:>14}", self.after_rule5)?;
        write!(
            f,
            "Total reduction  {:>13.4}%",
            self.total_reduction() * 100.0
        )
    }
}

/// Schedules surviving Rule 3: spatial K, or temporal K innermost.
pub fn schedules_after_rule3(all: &[LoopSchedule]) -> Vec<&LoopSchedule> {
    all.iter()
        .filter(|s| s.is_spatial(Dim::K) || s.innermost_temporal() == Some(Dim::K))
        .collect()
}

/// Schedules surviving Rules 3 *and* 4 (additionally: L not spatial).
pub fn schedules_after_rule4(all: &[LoopSchedule]) -> Vec<&LoopSchedule> {
    schedules_after_rule3(all)
        .into_iter()
        .filter(|s| !s.is_spatial(Dim::L))
        .collect()
}

/// One enumerated candidate, tagged with its position in the stream's
/// total order.
///
/// `seq` is the candidate's index in the order a nested
/// `schedules x clusters x tiles` scan would visit it. The search walk
/// visits candidates tile-major instead, and its workers interleave;
/// every consumer breaks cost ties by `seq`, which makes search results
/// independent of visit order and thread count.
#[derive(Debug, Clone, Copy)]
pub struct Candidate<'a> {
    /// Position in the stream's total order (`0..stream.len()`).
    pub seq: u64,
    /// The loop schedule.
    pub schedule: &'a LoopSchedule,
    /// The cluster shape.
    pub cluster: ClusterShape,
    /// The block tile.
    pub tile: BlockTile,
}

/// The candidate stream after Rules 1–4: every (schedule, cluster, tile)
/// triple that survives the cheap structural rules. Rule 5 and the
/// residual geometry checks are the analyzer's admissibility check.
///
/// Two views of the same space:
///
/// * the **total order** — [`CandidateStream::get`] materialises the
///   candidate at any position and [`CandidateStream::iter`] scans them
///   all, naively;
/// * the **walk** — [`CandidateStream::walk_tile`] visits the
///   *admissible* candidates of one tile tuple, rejecting whole
///   subspaces before generating them: a tile that breaks a register or
///   SMEM limit skips all its clusters and schedules, and a
///   (tile, cluster) pair that does not divide the problem skips all its
///   schedules. Tile tuples are the unit of work search workers claim.
pub struct CandidateStream<'a> {
    /// Surviving schedules (borrowed from the caller's full list).
    pub schedules: Vec<&'a LoopSchedule>,
    /// Legal cluster shapes under the configured limit.
    pub clusters: Vec<ClusterShape>,
    /// Divisible tile choices per dimension (M, N, K, L).
    pub tiles: [Vec<usize>; 4],
}

impl<'a> CandidateStream<'a> {
    /// Builds the stream for a chain under `config`.
    pub fn build(chain: &ChainSpec, config: &PruneConfig, all: &'a [LoopSchedule]) -> Self {
        let dims = chain.dims();
        CandidateStream {
            schedules: schedules_after_rule4(all),
            clusters: ClusterShape::enumerate(config.max_cluster),
            tiles: [
                hardware_aware_tiles(dims.m),
                hardware_aware_tiles(dims.n),
                hardware_aware_tiles(dims.k),
                hardware_aware_tiles(dims.l),
            ],
        }
    }

    /// Candidates in the stream (product of the component counts).
    pub fn len(&self) -> u64 {
        self.schedules.len() as u64 * self.clusters.len() as u64 * self.tile_count()
    }

    /// `true` when no candidate survives the structural rules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tile tuples `(bm, bn, bk, bl)` in the stream — the innermost four
    /// components of the total order.
    pub fn tile_count(&self) -> u64 {
        self.tiles.iter().map(|t| t.len() as u64).product()
    }

    /// The tile tuple at index `t` of `0..tile_count()`, `bl` fastest.
    fn tile_at(&self, t: u64) -> BlockTile {
        let mut rest = t;
        let mut pick = |choices: &[usize]| -> usize {
            let d = (rest % choices.len() as u64) as usize;
            rest /= choices.len() as u64;
            choices[d]
        };
        let bl = pick(&self.tiles[3]);
        let bk = pick(&self.tiles[2]);
        let bn = pick(&self.tiles[1]);
        let bm = pick(&self.tiles[0]);
        BlockTile::new(bm, bn, bk, bl)
    }

    /// The candidate at position `seq` of the total order, or `None` past
    /// the end. The order matches a nested loop over
    /// `schedules x clusters x tiles_m x tiles_n x tiles_k x tiles_l`,
    /// innermost last — the order [`CandidateStream::iter`] visits.
    pub fn get(&self, seq: u64) -> Option<Candidate<'a>> {
        if seq >= self.len() {
            return None;
        }
        let tiles = self.tile_count();
        let clusters = self.clusters.len() as u64;
        let tile = self.tile_at(seq % tiles);
        let cluster = self.clusters[(seq / tiles % clusters) as usize];
        let schedule = self.schedules[(seq / tiles / clusters) as usize];
        Some(Candidate {
            seq,
            schedule,
            cluster,
            tile,
        })
    }

    /// Iterates the whole stream in total order.
    pub fn iter(&self) -> CandidateIter<'a, '_> {
        CandidateIter {
            stream: self,
            next: 0,
            end: self.len(),
        }
    }

    /// Visits every candidate; the callback returns `true` to keep
    /// iterating or `false` to stop early.
    pub fn for_each(&self, mut f: impl FnMut(&LoopSchedule, ClusterShape, BlockTile) -> bool) {
        for c in self.iter() {
            if !f(c.schedule, c.cluster, c.tile) {
                return;
            }
        }
    }

    /// Visits every candidate of tile tuple `t` (`0..tile_count()`) that
    /// `analyzer` admits ([`DataflowAnalyzer::admit`]), clusters outer,
    /// schedules inner, with the geometry it derived. Candidates it does
    /// not visit are exactly those `analyzer.analyze` rejects.
    pub fn walk_tile(
        &self,
        chain: &ChainSpec,
        analyzer: &DataflowAnalyzer,
        t: u64,
        mut visit: impl FnMut(Candidate<'a>, &PlanGeometry),
    ) {
        let tile = self.tile_at(t);
        if analyzer.check_tile(chain, tile).is_err() {
            return;
        }
        let tiles = self.tile_count();
        let clusters = self.clusters.len() as u64;
        for (c, &cluster) in self.clusters.iter().enumerate() {
            let Ok(counts) = PlanGeometry::unit_counts(chain.dims(), cluster, tile) else {
                continue;
            };
            for (s, &schedule) in self.schedules.iter().enumerate() {
                let Ok(geometry) = PlanGeometry::from_unit_counts(counts, schedule) else {
                    continue;
                };
                if analyzer
                    .admit(chain, schedule, cluster, tile, &geometry)
                    .is_ok()
                {
                    let seq = (s as u64 * clusters + c as u64) * tiles + t;
                    let candidate = Candidate {
                        seq,
                        schedule,
                        cluster,
                        tile,
                    };
                    visit(candidate, &geometry);
                }
            }
        }
    }

    /// [`CandidateStream::walk_tile`] over every tile tuple in turn.
    pub fn walk(
        &self,
        chain: &ChainSpec,
        analyzer: &DataflowAnalyzer,
        mut visit: impl FnMut(Candidate<'a>, &PlanGeometry),
    ) {
        for t in 0..self.tile_count() {
            self.walk_tile(chain, analyzer, t, &mut visit);
        }
    }
}

impl<'a, 's> IntoIterator for &'s CandidateStream<'a> {
    type Item = Candidate<'a>;
    type IntoIter = CandidateIter<'a, 's>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`CandidateStream`] in total order.
pub struct CandidateIter<'a, 's> {
    stream: &'s CandidateStream<'a>,
    next: u64,
    end: u64,
}

impl<'a> Iterator for CandidateIter<'a, '_> {
    type Item = Candidate<'a>;

    fn next(&mut self) -> Option<Candidate<'a>> {
        if self.next >= self.end {
            return None;
        }
        let c = self.stream.get(self.next);
        self.next += 1;
        c
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for CandidateIter<'_, '_> {}

/// Computes the full Table III cascade for one chain. Rule 5 counts the
/// candidates the search walk admits — exactly those the analyzer
/// accepts, without running it.
pub fn count_cascade(
    chain: &ChainSpec,
    params: &MachineDescriptor,
    config: &PruneConfig,
) -> PruneStats {
    let dims = chain.dims();
    let all = LoopSchedule::enumerate_all();
    let tiles = space::tile_combinations(dims);
    let clusters = ClusterShape::enumerate(config.max_cluster).len() as u64;
    let r3 = schedules_after_rule3(&all).len() as u64;
    let r4 = schedules_after_rule4(&all).len() as u64;

    let stream = CandidateStream::build(chain, config, &all);
    let mut feasible = 0u64;
    stream.walk(chain, &config.analyzer(params), |_, _| feasible += 1);

    PruneStats {
        initial: space::initial_space_size(dims),
        after_rule1: space::space_after_rule1(dims),
        after_rule2: space::NUM_SCHEDULES * clusters * tiles,
        after_rule3: r3 * clusters * tiles,
        after_rule4: r4 * clusters * tiles,
        after_rule5: feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    #[test]
    fn rule3_keeps_16_schedule_classes_before_rule4() {
        let all = LoopSchedule::enumerate_all();
        let r3 = schedules_after_rule3(&all);
        // Spatial-K subsets: {K},{MK},{NK},{LK},{MNK},{MLK},{NLK},{MNKL}
        // contribute 3!+2+2+2+1+1+1+1 = 16 ... plus temporal-K-innermost.
        for s in &r3 {
            assert!(
                s.is_spatial(Dim::K) || s.innermost_temporal() == Some(Dim::K),
                "{s} escaped rule 3"
            );
        }
        assert!(r3.len() < all.len());
    }

    #[test]
    fn rule4_removes_spatial_l() {
        let all = LoopSchedule::enumerate_all();
        for s in schedules_after_rule4(&all) {
            assert!(!s.is_spatial(Dim::L));
        }
        assert!(schedules_after_rule4(&all).len() < schedules_after_rule3(&all).len());
    }

    #[test]
    fn cascade_is_monotonically_decreasing() {
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
        let stats = count_cascade(
            &chain,
            &MachineDescriptor::h100_sxm(),
            &PruneConfig::default(),
        );
        assert!(stats.initial >= stats.after_rule1 as f64);
        assert!(stats.after_rule1 >= stats.after_rule2);
        assert!(stats.after_rule2 >= stats.after_rule3);
        assert!(stats.after_rule3 >= stats.after_rule4);
        assert!(stats.after_rule4 >= stats.after_rule5);
        assert!(stats.after_rule5 > 0, "some candidate must survive");
        assert!(stats.total_reduction() > 0.99);
    }

    #[test]
    fn smem_only_config_prunes_more() {
        let chain = ChainSpec::standard_ffn(128, 4096, 1024, 1024, Activation::Relu);
        let params = MachineDescriptor::h100_sxm();
        let dsm = count_cascade(&chain, &params, &PruneConfig::default());
        let smem = count_cascade(
            &chain,
            &params,
            &PruneConfig {
                max_cluster: 1,
                lowest_spill: MemLevel::Smem,
                allow_inter_cluster_reduce: false,
            },
        );
        assert!(smem.after_rule5 < dsm.after_rule5);
    }

    #[test]
    fn stream_len_matches_iteration() {
        let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
        let all = LoopSchedule::enumerate_all();
        let stream = CandidateStream::build(&chain, &PruneConfig::default(), &all);
        let mut n = 0u64;
        stream.for_each(|_, _, _| {
            n += 1;
            true
        });
        assert_eq!(n, stream.len());
        assert!(!stream.is_empty());
    }

    #[test]
    fn stream_early_exit() {
        let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
        let all = LoopSchedule::enumerate_all();
        let stream = CandidateStream::build(&chain, &PruneConfig::default(), &all);
        let mut n = 0;
        stream.for_each(|_, _, _| {
            n += 1;
            n < 5
        });
        assert_eq!(n, 5);
    }

    #[test]
    fn display_has_all_rows() {
        let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
        let stats = count_cascade(
            &chain,
            &MachineDescriptor::h100_sxm(),
            &PruneConfig::default(),
        );
        let s = stats.to_string();
        for row in ["Rule 1", "Rule 5", "Total reduction"] {
            assert!(s.contains(row));
        }
    }
}
