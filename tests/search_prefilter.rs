//! Acceptance tests for the lower-bound prefilter against the paper's
//! GEMM-chain workload table, on the real simulator profiler:
//!
//! * for every `gemm_chains()` workload small enough to brute-force, the
//!   winner is identical with the prefilter on and off, and
//! * the guided (prefiltered, parallel) search never loses to itself
//!   run sequentially — plans and measurements agree exactly;
//! * the tile-major walk's top-K equals a naive scan of the stream's
//!   total order that analyzes every candidate, and the walk's
//!   admissibility check agrees with the analyzer on every candidate.

use flashfuser::core::{
    CandidateStream, CostModel, FusedPlan, PlanGeometry, SearchConfig, SearchEngine,
};
use flashfuser::prelude::*;
use flashfuser::workloads::{gemm_chains, Workload};

/// Candidate-stream ceiling under which brute-forcing a workload stays
/// cheap enough for CI (the DLRM-class chains G1–G3 qualify).
const BRUTE_FORCE_CANDIDATE_LIMIT: u64 = 600_000;

fn stream_len(chain: &ChainSpec, config: &SearchConfig) -> u64 {
    let all = LoopSchedule::enumerate_all();
    CandidateStream::build(chain, &config.prune, &all).len()
}

fn workloads(ids: &[&str]) -> Vec<Workload> {
    gemm_chains()
        .into_iter()
        .filter(|w| ids.contains(&w.id))
        .collect()
}

/// The reference ranking: scan `stream.iter()` in total order, analyze
/// and evaluate every candidate, keep the best `k` by `(est, seq)`. No
/// walk, no admissibility check, no prefilter.
fn naive_top_k(
    chain: &ChainSpec,
    params: &MachineDescriptor,
    config: &SearchConfig,
) -> Vec<(f64, FusedPlan)> {
    let all = LoopSchedule::enumerate_all();
    let stream = CandidateStream::build(chain, &config.prune, &all);
    let analyzer = config.prune.analyzer(params);
    let cost_model = CostModel::new(params.clone());
    let mut ranked: Vec<(f64, u64, FusedPlan)> = Vec::new();
    for cand in &stream {
        if let Ok(a) = analyzer.analyze(chain, cand.schedule, cand.cluster, cand.tile) {
            ranked.push((cost_model.evaluate(&a).est_s, cand.seq, a.plan().clone()));
            ranked.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
            ranked.truncate(config.top_k);
        }
    }
    ranked
        .into_iter()
        .map(|(est, _, plan)| (est, plan))
        .collect()
}

#[test]
fn prefilter_keeps_the_brute_force_winner_on_small_gemm_chains() {
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    let config = SearchConfig::default();
    let mut tested = 0;
    for w in gemm_chains() {
        if stream_len(&w.chain, &config) > BRUTE_FORCE_CANDIDATE_LIMIT {
            continue;
        }
        tested += 1;

        // Ground truth: unfiltered brute force over every feasible plan.
        let mut brute_profiler = SimProfiler::new(params.clone());
        let (brute, _profiled) = engine
            .brute_force(&w.chain, &config, &mut brute_profiler)
            .unwrap();

        // Guided search, prefilter on vs off: identical outcome.
        let mut p_on = SimProfiler::new(params.clone());
        let on = engine
            .search_with_profiler(&w.chain, &config.clone().with_prefilter(true), &mut p_on)
            .unwrap();
        let mut p_off = SimProfiler::new(params.clone());
        let off = engine
            .search_with_profiler(&w.chain, &config.clone().with_prefilter(false), &mut p_off)
            .unwrap();
        assert_eq!(on.top_k().len(), off.top_k().len(), "{}", w.id);
        for (x, y) in on.top_k().iter().zip(off.top_k()) {
            assert_eq!(x.est_seconds, y.est_seconds, "{}", w.id);
            assert_eq!(
                x.analysis.plan().summary(),
                y.analysis.plan().summary(),
                "{}",
                w.id
            );
        }
        assert_eq!(on.best_index(), off.best_index(), "{}", w.id);

        // The guided pick must stay within the paper's tolerance of the
        // true optimum (Table VIII reports "same plan" within 2%) — and
        // crucially the prefilter must not have changed that relation.
        let brute_s = brute.measured.unwrap().seconds;
        let on_s = on.best().measured.unwrap().seconds;
        let off_s = off.best().measured.unwrap().seconds;
        assert_eq!(on_s, off_s, "{}: prefilter changed the measured pick", w.id);
        assert!(
            brute_s <= on_s + 1e-18,
            "{}: brute force must lower-bound the guided pick",
            w.id
        );
    }
    assert!(
        tested >= 3,
        "only {tested} workloads small enough — limit drifted"
    );
}

#[test]
fn parallel_guided_search_matches_sequential_on_the_simulator() {
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    for w in gemm_chains()
        .into_iter()
        .filter(|w| ["G1", "G2", "G10"].contains(&w.id))
    {
        let mut p_seq = SimProfiler::new(params.clone());
        let seq = engine
            .search_with_profiler(
                &w.chain,
                &SearchConfig::default().with_threads(1),
                &mut p_seq,
            )
            .unwrap();
        let mut p_par = SimProfiler::new(params.clone());
        let par = engine
            .search_with_profiler(
                &w.chain,
                &SearchConfig::default().with_threads(4),
                &mut p_par,
            )
            .unwrap();
        assert_eq!(seq.best_index(), par.best_index(), "{}", w.id);
        assert_eq!(p_seq.profiled, p_par.profiled, "{}", w.id);
        for (x, y) in seq.top_k().iter().zip(par.top_k()) {
            assert_eq!(x.est_seconds, y.est_seconds, "{}", w.id);
            assert_eq!(x.measured.unwrap(), y.measured.unwrap(), "{}", w.id);
        }
    }
}

#[test]
fn walk_top_k_matches_a_naive_scan_on_g1_to_g3_and_g10() {
    let params = MachineDescriptor::h100_sxm();
    let engine = SearchEngine::new(params.clone());
    for w in workloads(&["G1", "G2", "G3", "G10"]) {
        let reference = naive_top_k(&w.chain, &params, &SearchConfig::default());
        for threads in [1, 2] {
            let config = SearchConfig::default().with_threads(threads);
            let walked = engine.search(&w.chain, &config).unwrap();
            assert_eq!(walked.top_k().len(), reference.len(), "{}", w.id);
            for (got, (est, plan)) in walked.top_k().iter().zip(&reference) {
                assert_eq!(got.est_seconds.to_bits(), est.to_bits(), "{}", w.id);
                assert_eq!(got.analysis.plan(), plan, "{}", w.id);
            }
        }
    }
}

#[test]
fn admissibility_check_agrees_with_the_analyzer_on_every_g1_to_g3_candidate() {
    let params = MachineDescriptor::h100_sxm();
    let config = SearchConfig::default();
    let analyzer = config.prune.analyzer(&params);
    let all = LoopSchedule::enumerate_all();
    for w in workloads(&["G1", "G2", "G3"]) {
        let stream = CandidateStream::build(&w.chain, &config.prune, &all);
        let mut admitted = 0u64;
        for cand in &stream {
            let admits =
                PlanGeometry::derive(w.chain.dims(), cand.schedule, cand.cluster, cand.tile)
                    .is_ok_and(|g| {
                        analyzer
                            .admit(&w.chain, cand.schedule, cand.cluster, cand.tile, &g)
                            .is_ok()
                    });
            let analyzes = analyzer
                .analyze(&w.chain, cand.schedule, cand.cluster, cand.tile)
                .is_ok();
            assert_eq!(admits, analyzes, "{}: seq {}", w.id, cand.seq);
            admitted += u64::from(admits);
        }
        let mut walked = 0u64;
        stream.walk(&w.chain, &analyzer, |_, _| walked += 1);
        assert_eq!(
            walked, admitted,
            "{}: the walk visits every admitted candidate",
            w.id
        );
        assert!(admitted > 0, "{}", w.id);
    }
}
