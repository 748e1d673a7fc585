//! `zoo-cold`: cold whole-model compiles, one caller, closed loop.
//!
//! A pass compiles the 8 zoo models (`model_zoo()` + `large_model_zoo()`)
//! as 2-layer graphs at M=128 and M=512 — 16 graphs, in an order drawn
//! from the seed. Every graph gets a fresh memory-only `Compiler`, so
//! every compile starts cold and only layer 2 hits the plan cache.
//! Passes repeat until the budget is spent; only whole passes are
//! measured, so every run samples each graph equally often.

use crate::layers::{self, PlanTotals};
use crate::report::{self, Report};
use crate::trace::Trace;
use crate::{machine, shuffle, timed_setups, Args};
use flashfuser::cache::{PlanCache, PlanKey, DEFAULT_CAPACITY};
use flashfuser::core::codec::{encode_record, PlanRecord};
use flashfuser::core::{
    CandidateStream, LoopSchedule, MachineDescriptor, SearchConfig, SearchEngine,
};
use flashfuser::graph::OpGraph;
use flashfuser::sim::SimProfiler;
use flashfuser::tensor::rng::SplitMix64;
use flashfuser::workloads::{large_model_zoo, model_zoo, ModelSpec};
use flashfuser::{default_config_for, CompiledSegment, Compiler, CompilerOptions, GraphPlan};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token counts per graph: the paper's small-batch regime and the
/// fusion crossover.
const M_VALUES: [usize; 2] = [128, 512];

/// Layers per model graph.
const LAYERS: usize = 2;

/// One zoo graph.
struct Input {
    label: String,
    model: ModelSpec,
    m: usize,
    graph: OpGraph,
}

fn build_inputs(seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = model_zoo()
        .into_iter()
        .chain(large_model_zoo())
        .flat_map(|model| {
            M_VALUES.map(|m| Input {
                label: format!("{}@M={m}", model.name),
                model,
                m,
                graph: model.graph(m, LAYERS),
            })
        })
        .collect();
    shuffle(&mut inputs, &mut SplitMix64::new(seed));
    inputs
}

pub fn run(args: &Args, process_start: Instant, report: &mut Report) {
    let machine = machine();
    report.note("kernel", "none");
    let inputs = timed_setups(report, process_start, 15, || {
        let inputs = build_inputs(args.seed);
        // One untimed compile of the smallest graph faults in code and
        // warms the allocator before the first timed compile.
        let smallest = inputs
            .iter()
            .min_by_key(|i| i.model.hidden * i.model.ffn_hidden * i.m)
            .expect("inputs");
        Compiler::new(machine.clone())
            .compile_graph(&smallest.graph)
            .expect("warm-up compile");
        inputs
    });

    // Timed passes. A traced run needs only the first (its checks and
    // plan totals); its budget goes to the traced passes.
    let budget = if args.trace {
        Duration::ZERO
    } else {
        args.budget()
    };
    let deadline = Instant::now() + budget;
    let mut per_graph: Vec<Vec<f64>> = inputs.iter().map(|_| Vec::new()).collect();
    let mut first_pass: Vec<Option<(Compiler, GraphPlan)>> = inputs.iter().map(|_| None).collect();
    let mut passes = 0;
    loop {
        for (i, input) in inputs.iter().enumerate() {
            let compiler = Compiler::new(machine.clone());
            let t0 = Instant::now();
            let outcome = compiler.compile_graph(&input.graph);
            let elapsed = t0.elapsed();
            let verdict = match outcome {
                Err(e) => Err(format!("compile failed: {e}")),
                Ok(plan) => {
                    per_graph[i].push(report::ms(elapsed));
                    let verdict = layers::check_plan(&input.graph, &plan);
                    if passes == 0 {
                        first_pass[i] = Some((compiler, plan));
                        verdict
                    } else {
                        verdict.and_then(|()| match &first_pass[i] {
                            Some((_, first)) if !same_plan(first, &plan) => {
                                Err(format!("pass {passes} plan differs from pass 0"))
                            }
                            _ => Ok(()),
                        })
                    }
                }
            };
            report.outcome(verdict.map_err(|e| format!("zoo-cold {}: {e}", input.label)));
        }
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    report.note("passes", passes);
    for (input, times) in inputs.iter().zip(&per_graph) {
        println!(
            "graph {} compile_ms mean {:.1} (n={})",
            input.label,
            report::mean(times),
            times.len()
        );
    }
    let means = report::per_input_means(&per_graph);
    // `op_ms.*` feed the result line; the table also shows them under
    // the workload's own name, with its p90.
    for (name, q) in [
        ("op_ms.p95", 0.95),
        ("compile_cold_ms.p50", 0.5),
        ("compile_cold_ms.p90", 0.9),
    ] {
        report.set(name, report::quantile(&means, q), "ms", means.len());
    }
    report.set("op_ms.typical", report::geomean(&means), "ms", means.len());

    // Cache counters of the first pass, read before the warm lookups
    // below touch them.
    let (mut hits, mut lookups, mut searches) = (0, 0, 0);
    for (compiler, _) in first_pass.iter().flatten() {
        let stats = compiler.cache_stats();
        hits += stats.hits();
        lookups += stats.hits() + stats.misses;
        searches += compiler.searches_run();
    }
    report.set(
        "cache.hit_rate",
        report::share(hits as f64, lookups as f64),
        "ratio",
        lookups as usize,
    );
    report.set("cache.searches", searches as f64, "count", 1);

    let mut totals = PlanTotals::default();
    // Summed in label order, so the float totals do not depend on the
    // seeded pass order.
    let mut by_label: Vec<_> = inputs
        .iter()
        .zip(&first_pass)
        .filter_map(|(input, first)| first.as_ref().map(|(c, p)| (&input.label, c, p)))
        .collect();
    by_label.sort_by_key(|&(label, ..)| label);
    for (_, compiler, plan) in by_label {
        totals.add(compiler, plan);
    }
    totals.report(report, inputs.len());

    // Thread-count invariance: every plan and measured figure must be
    // identical at threads=1; differing encoded records (the `feasible`
    // count) are counted, not failed.
    let single = default_config_for(&machine).with_threads(1);
    let mut drift = 0;
    for (input, first) in inputs.iter().zip(&first_pass) {
        let Some((compiler, plan)) = first else {
            continue;
        };
        let (verdict, drifted) = compare_single_thread(&machine, &single, compiler, plan, input);
        drift += drifted;
        report.outcome(verdict.map_err(|e| format!("zoo-cold {} threads=1: {e}", input.label)));
    }
    report.set("core.search.record_drift", drift as f64, "count", 1);

    if args.trace {
        traced(args, &machine, &inputs, report);
    }
}

/// `true` when two compiles of one graph stitched the same plan. The
/// `feasible` search count is excluded: it depends on scan
/// interleaving (`core.search.record_drift` reports it).
fn same_plan(a: &GraphPlan, b: &GraphPlan) -> bool {
    let strip = |p: &GraphPlan| {
        let mut p = p.clone();
        for segment in &mut p.segments {
            if let CompiledSegment::Fused(f) = segment {
                f.compiled.feasible_candidates = 0;
            }
        }
        p
    };
    strip(a) == strip(b)
}

/// Recompiles `input` with one search thread and compares it with the
/// default-thread `plan`. Returns the verdict and the number of fused
/// keys whose encoded record differs.
fn compare_single_thread(
    machine: &MachineDescriptor,
    single: &SearchConfig,
    compiler: &Compiler,
    plan: &GraphPlan,
    input: &Input,
) -> (Result<(), String>, u64) {
    let options = CompilerOptions {
        config: Some(single.clone()),
        ..CompilerOptions::default()
    };
    let one = Compiler::with_options(machine.clone(), options).expect("memory-only compiler");
    let other = match one.compile_graph(&input.graph) {
        Ok(other) => other,
        Err(e) => return (Err(format!("compile failed: {e}")), 0),
    };
    if !same_plan(plan, &other) {
        return (
            Err("plan differs from the default thread count's".into()),
            0,
        );
    }
    // Same plans, so the same fused chains: compare what the records add
    // (DSM bytes) and count encodings that differ (the `feasible` count).
    let mut drifted = HashMap::new();
    for f in plan.fused_segments() {
        let a = compiler.compile_record_for(&f.chain).expect("cached");
        let b = one.compile_record_for(&f.chain).expect("cached");
        if a.dsm_bytes != b.dsm_bytes {
            return (
                Err(format!("DSM bytes of chain {:?} differ", f.chain.dims())),
                0,
            );
        }
        drifted.insert(
            compiler.key_for(&f.chain),
            encode_record(&a) != encode_record(&b),
        );
    }
    (Ok(()), drifted.values().filter(|&&d| d).count() as u64)
}

/// What the searches of the traced replica observed: counts of the
/// first pass, times of every pass.
#[derive(Debug, Default)]
struct SearchTally {
    searches: u64,
    rank1_won: u64,
    considered: u64,
    prefiltered: u64,
    profile_calls: u64,
    candidates: u64,
    enumerate_ms: Vec<f64>,
    rank_ms: Vec<f64>,
    profile_ms: Vec<f64>,
}

/// Replays `Compiler::compile_graph` of one zoo graph layer by layer:
/// lower → infer_shapes → match_chains → partition_graph, then for each
/// fused chain `PlanKey::derive` → `PlanCache::get` and, on a miss,
/// `SearchEngine::search_with_profiler` with a `SimProfiler`, as
/// `Compiler` calls it (ranking, then the top-K profiled across the
/// search threads).
fn replica(
    trace: &mut Trace,
    input: &Input,
    machine: &MachineDescriptor,
    config: &SearchConfig,
    tally: &mut SearchTally,
) {
    let engine = SearchEngine::new(machine.clone());
    let graph = trace.span("workloads.lower", |_| input.model.graph(input.m, LAYERS));
    let (partition, _) = layers::partition(trace, &graph, machine);
    let cache = PlanCache::in_memory(DEFAULT_CAPACITY);
    for chain in layers::fused_chains(&partition) {
        let (key, hit) = layers::lookup(trace, &cache, &chain, machine, config);
        if hit.is_some() {
            continue;
        }
        let mut profiler = SimProfiler::new(machine.clone());
        let t0 = Instant::now();
        let searched = trace.span("core.search", |_| {
            engine.search_with_profiler(&chain, config, &mut profiler)
        });
        let search_ms = report::ms(t0.elapsed());
        let Ok(result) = searched else {
            continue; // no feasible plan: the segment stays unfused
        };
        let stats = result.stats();
        let best = result.best();
        let measured = best
            .measured
            .expect("a profiled search measures its finalists");
        cache.put(
            key,
            Arc::new(PlanRecord {
                plan: best.analysis.plan().clone(),
                seconds: measured.seconds,
                global_bytes: measured.global_bytes,
                dsm_bytes: measured.dsm_bytes,
                feasible: stats.feasible,
            }),
        );
        let profile_ms = stats.profiling_seconds * 1e3;
        tally.rank_ms.push(search_ms - profile_ms);
        tally.profile_ms.push(profile_ms);
        tally.searches += 1;
        tally.rank1_won += u64::from(result.best_index() == 0);
        tally.considered += stats.considered;
        tally.prefiltered += stats.prefiltered;
        tally.profile_calls += profiler.profiled;
    }
}

/// Traced passes: per graph, the untraced program call, the traced
/// replica and the replica with spans off, until the budget is spent.
fn traced(args: &Args, machine: &MachineDescriptor, inputs: &[Input], report: &mut Report) {
    let config = default_config_for(machine);
    let schedules = LoopSchedule::enumerate_all();
    let mut trace = Trace::new();
    let mut tally = SearchTally::default();
    let (mut untraced_us, mut spans_us, mut traced_us, mut replica_us) = (0.0, 0.0, 0.0, 0.0);
    let (mut matches, mut segments, mut fused) = (0, 0, 0);
    let deadline = Instant::now() + args.budget();
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        for input in inputs {
            let t0 = Instant::now();
            let graph = input.model.graph(input.m, LAYERS);
            Compiler::new(machine.clone())
                .compile_graph(&graph)
                .expect("compiled in the timed pass");
            untraced_us += report::us(t0.elapsed());

            // Counts describe the first pass only.
            let mut scratch = SearchTally::default();
            let pass_tally = if passes == 0 {
                &mut tally
            } else {
                &mut scratch
            };
            let mark = trace.mark();
            let t1 = Instant::now();
            replica(&mut trace, input, machine, &config, pass_tally);
            traced_us += report::us(t1.elapsed());
            spans_us += trace.top_level_us_since(mark);
            tally.rank_ms.append(&mut scratch.rank_ms);
            tally.profile_ms.append(&mut scratch.profile_ms);

            let t2 = Instant::now();
            replica(
                &mut Trace::disabled(),
                input,
                machine,
                &config,
                &mut SearchTally::default(),
            );
            replica_us += report::us(t2.elapsed());

            if passes == 0 {
                // The enumeration walk is timed outside the replica: it
                // repeats work `rank` already contains.
                let (partition, m) = layers::partition(&mut Trace::disabled(), &graph, machine);
                matches += m;
                segments += partition.segments.len();
                fused += partition.fused_count();
                let mut searched = HashSet::new();
                for chain in layers::fused_chains(&partition) {
                    if !searched.insert(PlanKey::derive(&chain, machine, &config)) {
                        continue;
                    }
                    let t = Instant::now();
                    let stream = CandidateStream::build(&chain, &config.prune, &schedules);
                    let walked = stream.iter().count() as u64;
                    tally.enumerate_ms.push(report::ms(t.elapsed()));
                    tally.candidates += walked;
                }
            }
        }
        passes += 1;
    }
    report.note("traced_passes", passes);
    layers::report_graph_layers(report, &trace, matches, segments, fused);
    let (rank_ms, profile_ms) = (&tally.rank_ms, &tally.profile_ms);
    let searches = tally.searches as usize;
    report.set(
        "core.search.enumerate_ms",
        report::median(&tally.enumerate_ms),
        "ms",
        tally.enumerate_ms.len(),
    );
    report.set(
        "core.search.rank_ms",
        report::median(rank_ms),
        "ms",
        rank_ms.len(),
    );
    report.set(
        "core.search.candidates",
        tally.candidates as f64,
        "count",
        searches,
    );
    report.set(
        "core.search.considered",
        tally.considered as f64,
        "count",
        searches,
    );
    report.set(
        "core.search.prefiltered",
        tally.prefiltered as f64,
        "count",
        searches,
    );
    report.set(
        "core.search.analyzed",
        (tally.considered - tally.prefiltered) as f64,
        "count",
        searches,
    );
    report.set(
        "core.search.prefilter_share",
        report::share(tally.prefiltered as f64, tally.considered as f64),
        "ratio",
        searches,
    );
    let rank_s: f64 = rank_ms.iter().sum::<f64>() / 1e3;
    report.set(
        "core.search.candidates_per_s",
        report::share(tally.considered as f64 * passes as f64, rank_s),
        "1/s",
        rank_ms.len(),
    );
    report.set(
        "core.search.rank1_won_share",
        report::share(tally.rank1_won as f64, tally.searches as f64),
        "ratio",
        searches,
    );
    report.set(
        "sim.profile_ms",
        report::median(profile_ms),
        "ms",
        profile_ms.len(),
    );
    report.set(
        "sim.profile.calls",
        tally.profile_calls as f64,
        "count",
        searches,
    );
    report.set(
        "trace.unaccounted_share",
        (untraced_us - spans_us) / untraced_us,
        "ratio",
        passes * inputs.len(),
    );
    report.set(
        "trace.overhead_share",
        (traced_us - replica_us) / replica_us,
        "ratio",
        passes * inputs.len(),
    );
}
