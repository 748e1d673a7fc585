//! A plan record is a pure function of its key: compiling the same
//! chain with one search thread and with four encodes to the same bytes,
//! and the record's `feasible` count is the exact Table III Rule 5
//! count rather than a number that depends on how the scan interleaved.

use flashfuser::core::codec::encode_record;
use flashfuser::core::prune::count_cascade;
use flashfuser::default_config_for;
use flashfuser::prelude::*;
use flashfuser::workloads::{find_model, gemm_chains};

/// G1–G5 plus every chain the LLaMA-1B and BERT layer graphs fuse
/// (FFN and attention) at M = 128.
fn chains() -> Vec<(String, ChainSpec)> {
    let mut out: Vec<(String, ChainSpec)> = gemm_chains()
        .into_iter()
        .filter(|w| ["G1", "G2", "G3", "G4", "G5"].contains(&w.id))
        .map(|w| (w.id.to_string(), w.chain))
        .collect();
    for name in ["LLaMA-1B", "BERT"] {
        let model = find_model(name).expect("zoo model");
        let matches = match_chains(&model.layer_graph(128)).expect("zoo graphs are well-shaped");
        assert!(matches.len() >= 2, "{name}: FFN and attention windows");
        for (i, m) in matches.into_iter().enumerate() {
            out.push((format!("{name}#{i}"), m.chain));
        }
    }
    out
}

fn compiler(params: &MachineDescriptor, threads: usize) -> Compiler {
    let options = CompilerOptions {
        config: Some(default_config_for(params).with_threads(threads)),
        ..CompilerOptions::default()
    };
    Compiler::with_options(params.clone(), options).expect("memory-only compiler")
}

#[test]
fn records_are_byte_identical_across_thread_counts_and_count_feasible_exactly() {
    let params = MachineDescriptor::h100_sxm();
    let prune = default_config_for(&params).prune;
    let (one, four) = (compiler(&params, 1), compiler(&params, 4));
    for (id, chain) in chains() {
        let a = one.compile_record_for(&chain).expect("zoo chains fuse");
        let b = four.compile_record_for(&chain).expect("zoo chains fuse");
        assert_eq!(
            encode_record(&a),
            encode_record(&b),
            "{id}: the record must not depend on the thread count"
        );
        assert_eq!(
            a.feasible,
            count_cascade(&chain, &params, &prune).after_rule5,
            "{id}: feasible is the Rule 5 count"
        );
    }
}
