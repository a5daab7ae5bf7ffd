//! Determinism self-test: two short runs of one seed give identical
//! virtual-time metrics and exact per-layer counts, and another seed gives
//! a different schedule.

use fleetbench::schedule::Schedule;
use fleetbench::{fleet, run, Options, Report};

#[global_allocator]
static ALLOC: fleetbench::alloc::Counting = fleetbench::alloc::Counting;

/// Runs a scaled-down traced run of `name`: the same code paths as the
/// benchmark, with fewer homes and a short window so the test stays fast.
fn short_run(name: &str, seed: u64) -> Report {
    let mut spec = fleet::workload(name).expect("known workload");
    spec.homes = spec.homes.min(16);
    spec.motion_homes = spec.motion_homes.min(2);
    spec.intent_hz = spec.intent_hz.min(4.0);
    spec.toggle_hz = spec.toggle_hz.min(1.0);
    spec.query_hz = spec.query_hz.min(10.0);
    spec.setups = 1;
    let window_per_second = spec.window_per_second;
    let workdir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("fleetbench-{name}-{seed}"));
    std::fs::create_dir_all(&workdir).expect("temp dir");
    let report = run(&Options {
        spec,
        seed,
        // A 3 s virtual window in each of the traced run's two passes.
        seconds: 6.0 / window_per_second,
        trace: true,
        workdir: workdir.clone(),
    });
    let _ = std::fs::remove_dir_all(&workdir);
    report
}

fn exact_layers(r: &Report) -> Vec<(String, f64)> {
    // Counts the runtime makes; host timings are excluded.
    const EXACT: &[&str] = &[
        "simnet.events",
        "apiserver.store.commits",
        "apiserver.store.events_appended",
        "apiserver.store.events_delivered",
        "core.controller.cycles",
        "core.driver.deliveries",
        "core.graph.edges",
        "core.trace.entries",
        "core.policer.fired",
        "host.allocs_per_intent",
        "host.alloc_bytes_per_intent",
    ];
    r.per_layer
        .iter()
        .filter(|m| EXACT.contains(&m.name.as_str()))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

fn virtual_metrics(r: &Report) -> Vec<(String, f64)> {
    r.end_to_end
        .iter()
        .filter(|m| m.name.starts_with("intent_ttf") || m.name == "intent_ok_ratio")
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

fn check_repeats(name: &str) {
    let a = short_run(name, 3);
    let b = short_run(name, 3);
    assert!(a.correct, "{name}: {:?}", a.problems);
    assert!(b.correct, "{name}: {:?}", b.problems);
    assert!(a.attempted > 0, "{name}: no measured intents");
    assert_eq!(a.exact, b.exact, "{name}: exact values differ");
    assert_eq!(virtual_metrics(&a), virtual_metrics(&b));
    assert_eq!(exact_layers(&a), exact_layers(&b));
    assert_eq!(exact_layers(&a).len(), 11);
}

/// One test function, so that no other test's harness output allocates
/// while a run counts allocations.
#[test]
fn runs_repeat_per_seed_and_seeds_differ() {
    for spec in fleet::workloads() {
        let a = Schedule::generate(&spec, 1, 4.0);
        let b = Schedule::generate(&spec, 2, 4.0);
        assert_eq!(a.actions, Schedule::generate(&spec, 1, 4.0).actions);
        assert_ne!(a.actions, b.actions, "{}", spec.name);
        assert_eq!(a.skipped, 0, "{}", spec.name);
    }
    check_repeats("large_fleet");
    check_repeats("durable_churn");
}
