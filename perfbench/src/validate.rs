//! `validate`: the differential oracle on warm plans, one caller,
//! closed loop.
//!
//! Each pass runs `validate_graph_with` (blocked kernel) over the 8 zoo
//! layer graphs scaled to hidden 512 at M=128 and a fixed `rand_graph`
//! corpus (extents up to 512, attention motifs with probability 0.5),
//! with input tensors and an order drawn from the seed. Set-up compiles
//! every graph, so the timed calls hit the plan cache and the time
//! falls on the interpreter, the executors and the GEMM kernels. Only
//! whole passes are measured.
//!
//! `BENCHMARK.json` does not list this workload yet: on the program as
//! it stands some seeds' random graphs fail the oracle's tolerance
//! (README.md, "Oracle tolerance at extent 512"), and the run exits 1.

use crate::layers::{self, PlanTotals};
use crate::report::{self, Report};
use crate::trace::Trace;
use crate::{machine, shuffle, timed_setups, Args};
use flashfuser::graph::{rand_graph, OpGraph, RandGraphConfig};
use flashfuser::sim::graph_exec::{execute_graph_with, ExecSegment};
use flashfuser::sim::{interpret_graph, seeded_graph_inputs};
use flashfuser::tensor::rng::{derive_seed, SplitMix64};
use flashfuser::tensor::NumericConfig;
use flashfuser::workloads::{large_model_zoo, model_zoo};
use flashfuser::{validate_graph_with, CompiledSegment, Compiler, DEFAULT_TOLERANCE};
use std::time::Instant;

/// Token count of the zoo layer graphs.
const M: usize = 128;

/// Hidden size the zoo layer graphs are scaled to.
const HIDDEN: usize = 512;

/// Random graphs: `rand_graph` seeds `0..RAND_GRAPHS`, a fixed corpus
/// like the fuzz corpus, so every run validates the same graphs (their
/// times spread over two orders of magnitude, and a seeded draw of 48
/// would move the typical time by ±20%); the run's seed draws their
/// input tensors and the order.
const RAND_GRAPHS: u64 = 48;

/// Chance that a random graph carries an attention motif.
const ATTENTION_PROB: f64 = 0.5;

/// One graph to validate.
struct Input {
    label: String,
    graph: OpGraph,
    /// Seed of the graph's input tensors.
    data_seed: u64,
    /// `true` for the zoo graphs, whose plans make up `plan_us`.
    zoo: bool,
}

fn build_inputs(seed: u64) -> Vec<Input> {
    let zoo = model_zoo()
        .into_iter()
        .chain(large_model_zoo())
        .map(|model| {
            let label = format!("{}@hidden={HIDDEN}", model.name);
            (label, model.scaled_to(HIDDEN).layer_graph(M), true)
        });
    let config = RandGraphConfig::new()
        .with_max_dim(HIDDEN)
        .with_attention_prob(ATTENTION_PROB);
    let random =
        (0..RAND_GRAPHS).map(|i| (format!("rand_graph#{i}"), rand_graph(i, &config), false));
    let mut inputs: Vec<Input> = zoo
        .chain(random)
        .map(|(label, graph, zoo)| Input {
            data_seed: derive_seed(seed, &label),
            label,
            graph,
            zoo,
        })
        .collect();
    shuffle(&mut inputs, &mut SplitMix64::new(seed));
    inputs
}

pub fn run(args: &Args, process_start: Instant, report: &mut Report) {
    let machine = machine();
    let numeric = NumericConfig::blocked();
    report.note("kernel", "blocked");
    let (compiler, inputs) = timed_setups(report, process_start, 5, || {
        let inputs = build_inputs(args.seed);
        let compiler = Compiler::new(machine.clone());
        for input in &inputs {
            compiler
                .compile_graph(&input.graph)
                .expect("set-up compile");
        }
        (compiler, inputs)
    });

    let before = compiler.cache_stats();
    let searches_before = compiler.searches_run();
    let deadline = Instant::now() + args.budget();
    let mut per_graph: Vec<Vec<f64>> = inputs.iter().map(|_| Vec::new()).collect();
    let mut totals = PlanTotals::default();
    let mut zoo_plans = Vec::new();
    let mut max_err = 0.0f32;
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        for (i, input) in inputs.iter().enumerate() {
            let t0 = Instant::now();
            let outcome = validate_graph_with(
                &compiler,
                &input.graph,
                input.data_seed,
                DEFAULT_TOLERANCE,
                numeric,
            );
            let elapsed = t0.elapsed();
            let verdict = match outcome {
                Err(e) => Err(format!("no verdict: {e}")),
                Ok(v) => {
                    per_graph[i].push(report::ms(elapsed));
                    max_err = max_err.max(v.max_err);
                    if passes == 0 && input.zoo {
                        zoo_plans.push((input.label.clone(), v.plan.clone()));
                    }
                    if v.passed() {
                        layers::check_plan(&input.graph, &v.plan)
                    } else {
                        let segments: Vec<String> = v
                            .failures()
                            .map(|c| {
                                let kind = match &v.plan.segments[c.index] {
                                    CompiledSegment::Fused(f) => {
                                        format!("{:?} {:?}", f.chain.kind(), f.chain.dims())
                                    }
                                    CompiledSegment::Unfused(_) => "unfused".to_string(),
                                };
                                format!(
                                    "segment {} ({kind}): err {:e}, global {}/{}, dsm {}/{}",
                                    c.index,
                                    c.max_err,
                                    c.executed_global,
                                    c.predicted_global,
                                    c.executed_dsm,
                                    c.predicted_dsm
                                )
                            })
                            .collect();
                        Err(format!(
                            "oracle disagrees: output err {:e} (tolerance {:e}); {}",
                            v.max_err,
                            v.tolerance,
                            segments.join("; ")
                        ))
                    }
                }
            };
            report.outcome(verdict.map_err(|e| format!("validate {}: {e}", input.label)));
        }
        passes += 1;
    }
    report.note("passes", passes);
    for (input, times) in inputs.iter().zip(&per_graph) {
        println!(
            "graph {} validate_ms mean {:.2} (n={})",
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
        ("validate_ms.p50", 0.5),
        ("validate_ms.p90", 0.9),
    ] {
        report.set(name, report::quantile(&means, q), "ms", means.len());
    }
    report.set("op_ms.typical", report::geomean(&means), "ms", means.len());
    report.set(
        "validate.max_err",
        f64::from(max_err),
        "ratio",
        passes * inputs.len(),
    );

    let after = compiler.cache_stats();
    let hits = after.hits() - before.hits();
    let lookups = hits + after.misses - before.misses;
    report.set(
        "cache.hit_rate",
        report::share(hits as f64, lookups as f64),
        "ratio",
        lookups as usize,
    );
    // Infeasible chains are not cached, so a warm compile still
    // searches them again: per pass.
    let searches = (compiler.searches_run() - searches_before) as f64 / passes as f64;
    report.set("cache.searches", searches, "count", passes);
    // Summed in label order, so the float totals do not depend on the
    // seeded pass order.
    zoo_plans.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, plan) in &zoo_plans {
        totals.add(&compiler, plan);
    }
    totals.report(report, zoo_plans.len());

    if args.trace {
        traced(args, &compiler, &inputs, numeric, report);
    }
}

/// Execution traffic of one replica.
#[derive(Debug, Default, Clone, Copy)]
struct Traffic {
    global_bytes: u64,
    dsm_bytes: u64,
}

/// Replays `validate_graph_with` layer by layer: compile (warm),
/// seeded inputs, the reference interpretation, the stitched
/// execution. The comparison that follows has no public function of
/// its own; it is the remainder of the call.
fn replica(
    trace: &mut Trace,
    compiler: &Compiler,
    input: &Input,
    numeric: NumericConfig,
) -> Traffic {
    let plan = trace.span("validate.compile", |_| {
        compiler.compile_graph(&input.graph).expect("compiles")
    });
    let bound = trace.span("sim.inputs", |_| {
        seeded_graph_inputs(&input.graph, input.data_seed)
    });
    trace.span("sim.interp", |_| {
        interpret_graph(&input.graph, &bound).expect("interprets")
    });
    let segments: Vec<ExecSegment<'_>> = plan
        .segments
        .iter()
        .map(|s| match s {
            CompiledSegment::Fused(f) => ExecSegment::Fused {
                plan: &f.compiled.plan,
                nodes: &f.nodes,
            },
            CompiledSegment::Unfused(u) => ExecSegment::Unfused { nodes: &u.nodes },
        })
        .collect();
    let execution = trace.span("sim.exec", |_| {
        execute_graph_with(&input.graph, &segments, &bound, numeric).expect("executes")
    });
    execution
        .traces
        .iter()
        .fold(Traffic::default(), |t, s| Traffic {
            global_bytes: t.global_bytes + s.counters.global_bytes(),
            dsm_bytes: t.dsm_bytes + s.counters.dsm_bytes(),
        })
}

/// Traced passes: per graph, the untraced call, the traced replica and
/// the replica with spans off, until the budget is spent.
fn traced(
    args: &Args,
    compiler: &Compiler,
    inputs: &[Input],
    numeric: NumericConfig,
    report: &mut Report,
) {
    let machine = machine();
    let mut trace = Trace::new();
    let mut layer_trace = Trace::new();
    let (mut untraced_us, mut spans_us, mut traced_us, mut replica_us) = (0.0, 0.0, 0.0, 0.0);
    let mut compare_ms = Vec::new();
    let mut traffic = Traffic::default();
    let (mut matches, mut segments, mut fused, mut flops) = (0, 0, 0, 0u64);
    let deadline = Instant::now() + args.budget();
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        for input in inputs {
            let t0 = Instant::now();
            validate_graph_with(
                compiler,
                &input.graph,
                input.data_seed,
                DEFAULT_TOLERANCE,
                numeric,
            )
            .expect("validated in the timed pass");
            let untraced = report::us(t0.elapsed());
            untraced_us += untraced;

            let mark = trace.mark();
            let t1 = Instant::now();
            let t = replica(&mut trace, compiler, input, numeric);
            traced_us += report::us(t1.elapsed());
            let spans = trace.top_level_us_since(mark);
            spans_us += spans;
            compare_ms.push((untraced - spans).max(0.0) / 1e3);

            let t2 = Instant::now();
            replica(&mut Trace::disabled(), compiler, input, numeric);
            replica_us += report::us(t2.elapsed());

            if passes == 0 {
                traffic.global_bytes += t.global_bytes;
                traffic.dsm_bytes += t.dsm_bytes;
                flops += layers::gemm_flops(&input.graph);
                // Graph layers run inside `compile_graph`: measured on
                // their own trace so they do not count twice.
                let (partition, m) = layers::partition(&mut layer_trace, &input.graph, &machine);
                matches += m;
                segments += partition.segments.len();
                fused += partition.fused_count();
            }
        }
        passes += 1;
    }
    let n = passes * inputs.len();
    report.note("traced_passes", passes);
    layers::report_graph_layers(report, &layer_trace, matches, segments, fused);
    for (span, metric) in [
        ("validate.compile", "validate.compile_ms"),
        ("sim.interp", "sim.interp_ms"),
        ("sim.exec", "sim.exec_ms"),
    ] {
        let d: Vec<f64> = trace.durations_us(span).iter().map(|u| u / 1e3).collect();
        report.set(metric, report::median(&d), "ms", d.len());
    }
    report.set(
        "validate.compare_ms",
        report::median(&compare_ms),
        "ms",
        compare_ms.len(),
    );
    report.set(
        "sim.exec.global_mb",
        traffic.global_bytes as f64 / 1e6,
        "MB",
        inputs.len(),
    );
    report.set(
        "sim.exec.dsm_mb",
        traffic.dsm_bytes as f64 / 1e6,
        "MB",
        inputs.len(),
    );
    let gflop = flops as f64 / 1e9;
    report.set("tensor.gflop", gflop, "GFLOP", inputs.len());
    let per_pass_s = |span: &str| trace.total_us(span) / 1e6 / passes as f64;
    report.set(
        "tensor.exec_gflops",
        report::share(gflop, per_pass_s("sim.exec")),
        "GFLOP/s",
        n,
    );
    report.set(
        "sim.interp_gflops",
        report::share(gflop, per_pass_s("sim.interp")),
        "GFLOP/s",
        n,
    );
    report.set(
        "trace.unaccounted_share",
        (untraced_us - spans_us) / untraced_us,
        "ratio",
        n,
    );
    report.set(
        "trace.overhead_share",
        (traced_us - replica_us) / replica_us,
        "ratio",
        n,
    );
}
