//! A smoke-sized run of every workload prints every metric
//! `BENCHMARK.json` names, with zero failed operations and correct
//! outputs; every end-to-end metric is above zero.

use fabric_perfbench::{run_end_to_end, run_layers, workload, Outcome};

/// Metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn smoke_sized(mut w: workload::Workload) -> workload::Workload {
    // Large enough that every write in flight finds a free key.
    w.pdc_keys = w.pdc_keys.min(256);
    w.public_keys = w.public_keys.min(1024);
    w.sbe_keys = w.sbe_keys.min(512);
    w.warmup_ticks = 10;
    w.setup_reps = 2;
    w.memory_ticks = 20;
    w
}

fn assert_prints(outcome: &Outcome, names: &[String], positive: bool, what: &str) {
    assert!(outcome.correct, "{what}: {:?}", outcome.errors);
    assert_eq!(outcome.failed, 0, "{what}: {:?}", outcome.errors);
    assert!(outcome.attempted > 0, "{what}");
    for name in names {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{what}: {name} not printed"));
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
        if positive {
            assert!(m.value > 0.0, "{what}: {name} = {}", m.value);
        }
    }
    assert_eq!(outcome.metrics.len(), names.len(), "{what}: extra metrics");
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 8);
    assert!(per_layer.len() > 20);
    for w in workload::all().into_iter().map(smoke_sized) {
        let outcome = run_end_to_end(&w, 1, 0.4).expect("untraced run");
        assert_prints(&outcome, &end_to_end, true, w.name);
        let outcome = run_layers(&w, 1, 0.4).expect("traced run");
        assert_prints(&outcome, &per_layer, false, w.name);
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    let w = smoke_sized(workload::pdc_small_blocks());
    let chain_of = |seed| {
        let mut bench = fabric_perfbench::driver::Bench::setup(&w, seed, false, false).unwrap();
        bench.run_ticks(30);
        bench
            .chain()
            .iter()
            .map(|b| b.header.data_hash)
            .collect::<Vec<_>>()
    };
    assert_eq!(chain_of(3), chain_of(3));
    assert_ne!(chain_of(3), chain_of(4));
}
