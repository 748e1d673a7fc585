//! Layer calls and plan checks shared by the workloads.

use crate::report::{self, Report};
use crate::trace::Trace;
use flashfuser::cache::{PlanCache, PlanKey};
use flashfuser::core::codec::PlanRecord;
use flashfuser::core::segment::{partition_graph, GraphPartition, Segment};
use flashfuser::core::{MachineDescriptor, SearchConfig};
use flashfuser::graph::{match_chains, ChainSpec, OpGraph, OpKind};
use flashfuser::sim::UnfusedKernelPricer;
use flashfuser::{CompiledSegment, Compiler, GraphPlan, UNFUSED_EFFICIENCY};

/// Shape inference, chain matching and partitioning of `g`, each in its
/// own span (the order `Compiler::compile_graph` reaches them). Returns
/// the partition and the number of chain matches.
pub fn partition(
    trace: &mut Trace,
    g: &OpGraph,
    machine: &MachineDescriptor,
) -> (GraphPartition, usize) {
    trace.span("graph.infer_shapes", |_| {
        g.infer_shapes().expect("benchmark graphs are well-shaped")
    });
    let matches = trace.span("graph.match_chains", |_| {
        match_chains(g).expect("well-shaped").len()
    });
    let partition = trace.span("core.segment.partition", |_| {
        let pricer = UnfusedKernelPricer::new(machine.clone(), UNFUSED_EFFICIENCY);
        partition_graph(g, machine, &pricer).expect("benchmark graphs partition")
    });
    (partition, matches)
}

/// The chains of a partition's fused segments, in order.
pub fn fused_chains(partition: &GraphPartition) -> Vec<ChainSpec> {
    partition
        .segments
        .iter()
        .filter_map(|s| match s {
            Segment::Fused { chain, .. } => Some(chain.clone()),
            Segment::Unfused { .. } => None,
        })
        .collect()
}

/// Key derivation and a cache lookup for `chain`, each in its own span.
pub fn lookup(
    trace: &mut Trace,
    cache: &PlanCache,
    chain: &ChainSpec,
    machine: &MachineDescriptor,
    config: &SearchConfig,
) -> (PlanKey, Option<std::sync::Arc<PlanRecord>>) {
    let key = trace.span("cache.key", |_| PlanKey::derive(chain, machine, config));
    let hit = trace.span("cache.get", |_| cache.get(&key));
    (key, hit)
}

/// Per-layer graph metrics from the spans and counts of one pass.
pub fn report_graph_layers(
    report: &mut Report,
    trace: &Trace,
    matches: usize,
    segments: usize,
    fused: usize,
) {
    for (span, metric) in [
        ("workloads.lower", "workloads.lower_us"),
        ("graph.infer_shapes", "graph.infer_shapes_us"),
        ("graph.match_chains", "graph.match_chains_us"),
        ("core.segment.partition", "core.segment.partition_us"),
        ("cache.key", "cache.key_us"),
        ("cache.get", "cache.get_us"),
    ] {
        let d = trace.durations_us(span);
        if !d.is_empty() {
            report.set(metric, report::median(&d), "us", d.len());
        }
    }
    report.set("graph.matches", matches as f64, "count", 1);
    report.set("core.segment.segments", segments as f64, "count", 1);
    report.set("core.segment.fused", fused as f64, "count", 1);
}

/// Checks the structural invariants of a stitched plan: every compute
/// node lies in exactly one segment, the plan never loses to the
/// unfused baseline, and the segment times sum to the plan's time.
pub fn check_plan(graph: &OpGraph, plan: &GraphPlan) -> Result<(), String> {
    let mut covered = vec![0u32; graph.len()];
    for segment in &plan.segments {
        for &node in segment.nodes() {
            covered[node] += 1;
        }
    }
    for (id, &count) in covered.iter().enumerate() {
        let compute = !matches!(graph.node(id).kind, OpKind::Input(..) | OpKind::Output);
        if count != u32::from(compute) {
            return Err(format!("node {id} lies in {count} segments"));
        }
    }
    if plan.seconds > plan.unfused_seconds {
        return Err(format!(
            "plan time {:e} s exceeds the unfused {:e} s",
            plan.seconds, plan.unfused_seconds
        ));
    }
    let summed: f64 = plan.segments.iter().map(CompiledSegment::seconds).sum();
    if (summed - plan.seconds).abs() > 1e-12 * plan.seconds.abs() {
        return Err(format!(
            "segment times sum to {summed:e} s, plan says {:e} s",
            plan.seconds
        ));
    }
    Ok(())
}

/// Modeled-time and traffic breakdown of a set of stitched plans.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlanTotals {
    pub seconds: f64,
    pub global_bytes: u64,
    pub fused_ffn_s: f64,
    pub fused_attention_s: f64,
    pub unfused_s: f64,
    pub fell_back: u64,
    pub dsm_bytes: u64,
}

impl PlanTotals {
    /// Adds `plan`. DSM bytes come from the plan records `compiler`
    /// holds for the fused segments (warm lookups: call this only after
    /// the compiler's cache counters have been read).
    pub fn add(&mut self, compiler: &Compiler, plan: &GraphPlan) {
        self.seconds += plan.seconds;
        self.global_bytes += plan.global_bytes;
        for segment in &plan.segments {
            match segment {
                CompiledSegment::Fused(f) if f.fell_back => {
                    self.fell_back += 1;
                    self.unfused_s += f.stitched_seconds();
                }
                CompiledSegment::Fused(f) => {
                    if f.chain.kind().is_attention() {
                        self.fused_attention_s += f.stitched_seconds();
                    } else {
                        self.fused_ffn_s += f.stitched_seconds();
                    }
                    let record = compiler
                        .compile_record_for(&f.chain)
                        .expect("a compiled segment's record is cached");
                    self.dsm_bytes += record.dsm_bytes;
                }
                CompiledSegment::Unfused(u) => self.unfused_s += u.seconds,
            }
        }
    }

    /// Records `plan_us` / `plan_global_mb` and the `plan.*` breakdown.
    pub fn report(&self, report: &mut Report, plans: usize) {
        report.set("plan_us", self.seconds * 1e6, "sim_us", plans);
        report.set(
            "plan_global_mb",
            self.global_bytes as f64 / 1e6,
            "MB",
            plans,
        );
        report.set("plan.fused_ffn_us", self.fused_ffn_s * 1e6, "sim_us", plans);
        report.set(
            "plan.fused_attention_us",
            self.fused_attention_s * 1e6,
            "sim_us",
            plans,
        );
        report.set("plan.unfused_us", self.unfused_s * 1e6, "sim_us", plans);
        report.set("plan.fell_back", self.fell_back as f64, "count", plans);
        report.set("plan.dsm_mb", self.dsm_bytes as f64 / 1e6, "MB", plans);
    }
}

/// GEMM FLOPs of one execution of `g`, counted from its shapes.
pub fn gemm_flops(g: &OpGraph) -> u64 {
    let shapes = g.infer_shapes().expect("well-shaped");
    (0..g.len())
        .filter(|&id| g.node(id).kind == OpKind::Matmul)
        .map(|id| g.op_cost(&shapes, id).flops)
        .sum()
}
