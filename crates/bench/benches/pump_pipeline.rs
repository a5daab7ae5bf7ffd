//! Pipelined vs serial controller pump: settle time for a cross-shard
//! scene burst when controller cycles and driver reconciles both take
//! nonzero simulated time.
//!
//! "Serial" is the pre-pipelining shape: any controller cycle in flight
//! stalls wake delivery space-wide, so driver reconciles and the other
//! controllers queue behind it. The runtime no longer carries that mode;
//! its virtual settle time on this exact workload is deterministic, so it
//! is kept as a recorded reference number ([`SERIAL_SETTLE_MS`]).
//! "Pipelined" is the runtime: each slot's busy/dirty lifecycle is
//! independent, so the mounter's replica refresh, the syncer, the policer
//! and every namespace's driver overlap in simulated time. The sweep
//! measures the pipelined virtual settle time, asserts it replays the
//! recorded value bit for bit, and asserts the margin over the serial
//! reference. Emits `BENCH_pump_pipeline.json` at the repo root.

use dspace_apiserver::ApiServer;
use dspace_core::driver::{Driver, Filter};
use dspace_core::graph::MountMode;
use dspace_core::{Space, SpaceConfig};
use dspace_simnet::LatencyModel;
use dspace_value::{AttrType, KindSchema};

/// Virtual settle time of the serial-controller baseline on this workload,
/// `[smoke, full]`, recorded when the runtime still carried that mode.
const SERIAL_SETTLE_MS: [f64; 2] = [297.0, 1188.0];

/// Pipelined settle time recorded alongside [`SERIAL_SETTLE_MS`],
/// `[smoke, full]`. Virtual time is deterministic, so the runtime must
/// reproduce it exactly.
const PIPELINED_SETTLE_MS: [f64; 2] = [162.0, 648.0];

fn lamp_schema() -> KindSchema {
    KindSchema::digivice("digi.dev", "v1", "Lamp")
        .control("brightness", AttrType::Number)
        .mounts("Lamp")
}

/// One reconcile cycle: acknowledge the pending intent. Each burst is
/// therefore a fixed cascade — intent commit wakes driver and mounter,
/// the ack commit wakes the mounter again for the replica refresh, and
/// that refresh wakes the space-wide controllers once more. Pipelined,
/// those cycles overlap across slots and namespaces; serial, every one
/// of them queued behind whichever controller cycle was in flight.
fn ack_driver() -> Driver {
    let mut d = Driver::new();
    d.on(Filter::on_control(), 0, "ack", |ctx| {
        let intent = ctx.digi().intent("brightness");
        if let Some(want) = intent.as_f64() {
            let status = ctx.digi().status("brightness").as_f64();
            if status != Some(want) {
                ctx.digi().set_status("brightness", want.into());
            }
        }
    });
    d
}

/// One mounted lamp pair per namespace shard: the burst is cross-shard,
/// every ack wakes the mounter (replica refresh into its hub), and with
/// nonzero controller latency the serial baseline stalled every wake
/// delivery behind each controller cycle.
fn build(namespaces: usize) -> Space {
    let mut space = Space::new(SpaceConfig {
        reconcile: LatencyModel::FixedMs(10.0),
        controller_reconcile: LatencyModel::FixedMs(40.0),
        admission: LatencyModel::FixedMs(1.0),
        ..SpaceConfig::default()
    });
    space.register_kind(lamp_schema());
    for ns in 0..namespaces {
        let nsname = format!("ns{ns}");
        let kid = space
            .create_digi_in("Lamp", &nsname, &format!("kid{ns}"), ack_driver())
            .unwrap();
        let hub = space
            .create_digi_in("Lamp", &nsname, &format!("hub{ns}"), Driver::new())
            .unwrap();
        space.settle(60_000);
        space.mount(&kid, &hub, MountMode::Expose).unwrap();
    }
    space.settle(120_000);
    space
}

/// Runs `rounds` cross-shard bursts, each settled to quiescence, and
/// returns `(virtual_settle_ms, wall_ms)`. Each burst patches every
/// kid's intent, so the space fans out one driver ack per namespace
/// plus mounter/syncer/policer cycles for the commits — the serial
/// baseline paid for each of those cycles back-to-back, the pipelined
/// runtime overlaps them.
fn run(namespaces: usize, rounds: usize) -> (f64, f64) {
    let mut space = build(namespaces);
    let t0 = space.now_ms();
    let wall = std::time::Instant::now();
    let mut want = 0.0;
    for r in 1..=rounds {
        want = r as f64 / 100.0;
        for ns in 0..namespaces {
            space
                .world
                .api
                .client(ApiServer::ADMIN)
                .namespace(format!("ns{ns}"))
                .patch_path(
                    "Lamp",
                    &format!("kid{ns}"),
                    ".control.brightness.intent",
                    want.into(),
                )
                .unwrap();
        }
        space.pump();
        space.settle(600_000);
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    for ns in 0..namespaces {
        assert_eq!(
            space
                .read(
                    &format!("hub{ns}"),
                    &format!(".mount.Lamp.kid{ns}.control.brightness.status"),
                )
                .unwrap()
                .as_f64(),
            Some(want),
            "replica must converge in ns{ns}"
        );
    }
    assert!(!space.world.has_pending_work(), "burst must quiesce");
    (space.now_ms() - t0, wall_ms)
}

fn pipeline_sweep(smoke: bool) {
    let namespaces: usize = if smoke { 2 } else { 6 };
    let rounds: usize = if smoke { 1 } else { 4 };
    let trials: usize = if smoke { 1 } else { 3 };
    let mode = usize::from(!smoke);
    println!();
    println!(
        "pump pipeline sweep: {namespaces} ns x 1 mounted pair, {rounds} cross-shard \
         bursts, driver 10 ms / controller 40 ms / admission 1 ms, {trials} trials"
    );
    // The asserted margin is on virtual settle time, which is produced by
    // the deterministic event schedule: it must come out bit-identical on
    // every trial, on any host, and equal to the recorded value.
    let mut virt = f64::NAN;
    let mut best_wall = f64::INFINITY;
    for trial in 0..trials {
        let (v, w) = run(namespaces, rounds);
        if trial == 0 {
            virt = v;
        } else {
            assert_eq!(
                v.to_bits(),
                virt.to_bits(),
                "virtual settle time must replay bit-identically across trials"
            );
        }
        best_wall = best_wall.min(w);
    }
    assert_eq!(
        virt.to_bits(),
        PIPELINED_SETTLE_MS[mode].to_bits(),
        "pipelined settle time {virt} ms drifted from the recorded {} ms",
        PIPELINED_SETTLE_MS[mode]
    );
    let serial = SERIAL_SETTLE_MS[mode];
    let speedup = serial / virt;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{:>10} {:>14} {:>12} {:>12}",
        "mode", "settle-ms", "ms/burst", "wall-ms"
    );
    println!(
        "{:>10} {:>14.1} {:>12.1} {:>12}",
        "serial",
        serial,
        serial / rounds as f64,
        "recorded"
    );
    println!(
        "{:>10} {:>14.1} {:>12.1} {:>12.2}",
        "pipelined",
        virt,
        virt / rounds as f64,
        best_wall
    );
    println!("pipelined vs serial settle time: {speedup:.2}x ({cores} cores)");
    if !smoke {
        // Virtual time is core-count-independent (the same event schedule
        // replays on any host), so unlike the wall-clock sweeps the floor
        // does not degrade on small machines; `cores` is reported for
        // parity with the other benches only.
        assert!(
            speedup >= 1.3,
            "pipelined controllers must beat the serial baseline's settle \
             time by >=1.3x at {namespaces} namespaces, got {speedup:.2}x"
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"pump_pipeline\",\n  \"namespaces\": {namespaces},\n  \"rounds\": {rounds},\n  \"trials\": {trials},\n  \"smoke\": {smoke},\n  \"cores\": {cores},\n  \"driver_reconcile_ms\": 10.0,\n  \"controller_reconcile_ms\": 40.0,\n  \"admission_ms\": 1.0,\n  \"serial_settle_ms\": {serial:.3},\n  \"serial_settle_source\": \"recorded\",\n  \"pipelined_settle_ms\": {virt:.3},\n  \"pipelined_wall_ms\": {best_wall:.3},\n  \"speedup_pipelined_vs_serial\": {speedup:.3}\n}}\n",
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_pump_pipeline.json"
    );
    std::fs::write(path, json).expect("write BENCH_pump_pipeline.json");
    println!("wrote {path}");
    println!();
}

fn main() {
    // `cargo bench -- --test` (the CI smoke) shrinks the sweep and skips
    // the margin floor; a full `cargo bench` enforces it.
    let smoke = std::env::args().any(|a| a == "--test");
    pipeline_sweep(smoke);
}
