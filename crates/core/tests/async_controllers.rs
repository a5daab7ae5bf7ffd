//! End-to-end tests of the async controller runtime: mounter/syncer/policer
//! cycles take simulated time, mid-cycle bursts coalesce into exactly one
//! follow-up cycle, controller writes survive lossy links through retries
//! plus OCC re-validation — and with every latency stage at zero the whole
//! machinery reproduces the golden digest of the legacy inline path.

mod common;

use proptest::prelude::*;

use dspace_core::driver::{Driver, Filter};
use dspace_core::graph::MountMode;
use dspace_core::{Space, SpaceConfig};
use dspace_simnet::{LatencyModel, Link};
use dspace_value::{AttrType, KindSchema};

use common::RunSummary;

fn lamp_schema() -> KindSchema {
    KindSchema::digivice("digi.dev", "v1", "Lamp")
        .control("brightness", AttrType::Number)
        .mounts("Lamp")
}

fn cam_schema() -> KindSchema {
    KindSchema::digidata("digi.dev", "v1", "Cam")
        .output("frames", AttrType::String)
        .obs("motion", AttrType::Bool)
}

fn scene_schema() -> KindSchema {
    KindSchema::digidata("digi.dev", "v1", "Scene").input("frames", AttrType::String)
}

/// A driver that acknowledges intent by writing status into its own model.
fn ack_driver() -> Driver {
    let mut d = Driver::new();
    d.on(Filter::on_control(), 0, "ack", |ctx| {
        let intent = ctx.digi().intent("brightness");
        if !intent.is_null() && intent != ctx.digi().status("brightness") {
            ctx.digi().set_status("brightness", intent);
        }
    });
    d
}

/// A scene that exercises all three controllers: a mounted lamp pair (the
/// mounter maintains the hub's replica), a camera piped into a scene digi
/// (the syncer propagates frames), and a motion policy whose rising edge
/// fires two consecutive set-intents (the policer's batched action path).
fn build_scene(config: SpaceConfig) -> Space {
    let mut space = Space::new(config);
    space.register_kind(lamp_schema());
    space.register_kind(cam_schema());
    space.register_kind(scene_schema());
    let kid = space.create_digi("Lamp", "kid", ack_driver()).unwrap();
    let hub = space.create_digi("Lamp", "hub", Driver::new()).unwrap();
    let cam = space.create_digi("Cam", "cam", Driver::new()).unwrap();
    let sink = space.create_digi("Scene", "sink", Driver::new()).unwrap();
    space.settle(30_000);
    space.mount(&kid, &hub, MountMode::Expose).unwrap();
    space.pipe(&cam, "frames", &sink, "frames").unwrap();
    space
        .add_policy(
            "motion-lights",
            dspace_value::yaml::parse(
                r#"
meta: {kind: Policy, name: motion-lights, namespace: default}
spec:
  watch: ["Cam/default/cam"]
  condition: .cam.obs.motion == true
  on_rising:
    - {action: set-intent, target: Lamp/default/kid, attr: brightness, value: 1.0}
    - {action: set-intent, target: Lamp/default/hub, attr: brightness, value: 1.0}
  on_falling:
    - {action: set-intent, target: Lamp/default/kid, attr: brightness, value: 0.25}
"#,
            )
            .unwrap(),
        )
        .unwrap();
    space.settle(30_000);
    space
}

/// One round of user/world activity: an intent on the mounted child, a new
/// camera frame through the pipe, and a motion edge for the policy.
fn drive(space: &mut Space, rounds: usize) {
    for i in 1..=rounds {
        space
            .set_intent_now("kid/brightness", (i as f64 / 100.0).into())
            .unwrap();
        space.settle(60_000);
        space
            .world
            .api
            .client(dspace_apiserver::ApiServer::ADMIN)
            .namespace("default")
            .patch_path(
                "Cam",
                "cam",
                ".data.output.frames",
                format!("frame-{i}").into(),
            )
            .unwrap();
        space.pump();
        space.settle(60_000);
        space
            .physical_event(
                "cam",
                dspace_value::json::parse(&format!(r#"{{"obs": {{"motion": {}}}}}"#, i % 2 == 1))
                    .unwrap(),
            )
            .unwrap();
        space.settle(60_000);
    }
}

fn step_until_controller_busy(space: &mut Space, name: &str) {
    let mut guard = 0u32;
    while !space.world.controller_busy(name) {
        assert!(space.step(), "sim drained before {name} went busy");
        guard += 1;
        assert!(guard < 100_000, "controller {name} never went busy");
    }
}

#[test]
fn burst_while_busy_lands_as_one_followup_cycle() {
    // A 100-patch burst arriving while the mounter is mid-cycle must be
    // absorbed by the dirty bit and re-polled at completion: ONE follow-up
    // cycle per controller slot (tentpole acceptance, clean-link variant).
    let mut space = Space::new(SpaceConfig {
        controller_reconcile: LatencyModel::FixedMs(20.0),
        ..SpaceConfig::default()
    });
    space.register_kind(lamp_schema());
    // Handler-less drivers: nothing but the controllers writes, so the
    // per-slot follow-up counters are attributable to the burst alone.
    let kid = space.create_digi("Lamp", "kid", Driver::new()).unwrap();
    let hub = space.create_digi("Lamp", "hub", Driver::new()).unwrap();
    space.settle(30_000);
    space.mount(&kid, &hub, MountMode::Expose).unwrap();
    space.settle(30_000);

    space.set_intent_now("kid/brightness", 0.5.into()).unwrap();
    step_until_controller_busy(&mut space, "mounter");
    for i in 0..100 {
        space
            .world
            .api
            .client(dspace_apiserver::ApiServer::ADMIN)
            .namespace("default")
            .patch_path(
                "Lamp",
                "kid",
                ".control.brightness.intent",
                (i as f64 / 100.0).into(),
            )
            .unwrap();
    }
    space.pump();
    space.settle(60_000);

    assert_eq!(
        space.world.metrics.counter("controller_followups:mounter"),
        1,
        "burst mid-cycle must land as exactly one mounter follow-up"
    );
    assert!(space.world.metrics.counter("controller_followup_cycles") >= 1);
    assert_eq!(
        space
            .read("hub", ".mount.Lamp.kid.control.brightness.intent")
            .unwrap()
            .as_f64(),
        Some(0.99),
        "replica must converge on the newest burst intent"
    );
    assert_eq!(
        space
            .world
            .metrics
            .counter("reconcile_invariant_violations"),
        0
    );
    assert!(!space.world.has_pending_work());
}

fn faulty_run(seed: u64) -> (RunSummary, u64, u64) {
    let write_link = Link::new("ctrl-write", LatencyModel::FixedMs(4.0))
        .with_jitter(LatencyModel::UniformMs(0.0, 3.0))
        .with_drop_probability(0.05);
    let mut space = build_scene(SpaceConfig {
        seed,
        controller_reconcile: LatencyModel::FixedMs(10.0),
        admission: LatencyModel::FixedMs(1.0),
        controller_write: Some(write_link),
        ..SpaceConfig::default()
    });
    drive(&mut space, 12);
    // Converged fixed point after round 12 (motion fell): the policy's
    // falling action set kid to 0.25, the ack driver confirmed it, and the
    // mounter carried both into the hub's replica despite dropped writes.
    assert_eq!(
        space
            .read("kid", ".control.brightness.status")
            .unwrap()
            .as_f64(),
        Some(0.25)
    );
    assert_eq!(
        space
            .read("hub", ".mount.Lamp.kid.control.brightness.status")
            .unwrap()
            .as_f64(),
        Some(0.25)
    );
    assert_eq!(
        space.read("sink", ".data.input.frames").unwrap().as_str(),
        Some("frame-12"),
        "pipe must deliver the final frame through the lossy syncer link"
    );
    assert!(!space.world.has_pending_work());
    let retries = space.world.metrics.counter("controller_retries");
    let gave_up = space.world.metrics.counter("controller_gave_up");
    (common::summarize(&space), retries, gave_up)
}

#[test]
fn faulty_controller_link_retries_and_is_deterministic() {
    // ISSUE acceptance: a 5%-drop jittered controller write link forces
    // retries but never exhausts the budget, the space converges, and the
    // whole run — clock, counters, trace, store — replays bit-identically
    // under the same seed.
    let (a, retries, gave_up) = faulty_run(7);
    assert!(
        retries > 0,
        "lossy link must have forced controller retries"
    );
    assert_eq!(gave_up, 0, "retry budget must absorb a 5% drop rate");

    let (b, _, _) = faulty_run(7);
    assert_eq!(a, b, "same seed must replay bit-identically");

    let (c, _, c_gave_up) = faulty_run(8);
    assert_eq!(c_gave_up, 0);
    assert_ne!(
        a.now_ms_bits, c.now_ms_bits,
        "a different seed should draw a different fault schedule"
    );
}

fn scene_run(write_link: Option<Link>, threads: usize) -> RunSummary {
    let mut space = build_scene(SpaceConfig {
        controller_write: write_link,
        threads,
        ..SpaceConfig::default()
    });
    drive(&mut space, 6);
    common::summarize(&space)
}

/// FNV-1a digest of `scene_run(None, 1)` (and of the same run at the
/// machine's max shard-thread cap), recorded with the legacy inline
/// controller path (`async_controllers: false`) before that switch was
/// deleted.
const SCENE_RUN_GOLDEN: u64 = 0x1c2f_3a13_365a_5bed;

#[test]
fn zero_latency_runtime_reproduces_golden_digest() {
    // Replay acceptance: with all-zero latency the runtime must reproduce
    // the recorded legacy inline run (clock, counters, trace, store dump)
    // at shard-thread caps 1 and max. The `Link::instant()` variant is the
    // non-vacuous half: it forces every cycle through the full deferred
    // plan→transmit→admit→land pipeline (zero RNG draws, zero delay)
    // rather than short-circuiting to the inline path.
    for threads in [1, common::max_threads()] {
        let fast_path = scene_run(None, threads);
        assert_eq!(
            fast_path.digest(),
            SCENE_RUN_GOLDEN,
            "zero-latency run diverged from the golden digest (threads={threads})"
        );
        let deferred = scene_run(Some(Link::instant()), threads);
        assert_eq!(
            fast_path, deferred,
            "deferred pipeline != inline fast path (threads={threads})"
        );
    }
}

#[test]
fn deferred_planning_reads_the_live_store() {
    // Controller cycles plan at wake against the live apiserver: no
    // per-wake store snapshot is taken, so snapshot-served reads stay
    // flat while coordinator (direct) reads grow with every cycle.
    let mut space = build_scene(SpaceConfig {
        controller_reconcile: LatencyModel::FixedMs(10.0),
        admission: LatencyModel::FixedMs(1.0),
        ..SpaceConfig::default()
    });
    let snapshot_reads = space.world.api.snapshot_reads();
    let direct_reads = space.world.api.direct_reads();
    for i in 1..=4 {
        space
            .set_intent("kid/brightness", (i as f64 / 10.0).into())
            .unwrap();
        space.run_for_ms(2_000);
    }
    assert!(space
        .world
        .metrics
        .histogram("controller_reconcile_ms")
        .is_some());
    assert_eq!(space.world.api.snapshot_reads(), snapshot_reads);
    assert!(space.world.api.direct_reads() > direct_reads);
    // `Space::read` is itself a snapshot read, so it comes last.
    assert_eq!(
        space
            .read("hub", ".mount.Lamp.kid.control.brightness.status")
            .unwrap()
            .as_f64(),
        Some(0.4),
        "intents must propagate through the deferred controller cycles"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the fault schedule — drop rate up to 20%, jitter, slow
    /// controller cycles, admission delay, arbitrary burst sizes — the
    /// mounted pair converges (hub replica reflects the final acked
    /// intent), no controller exhausts its retry budget, and the event
    /// queue quiesces.
    #[test]
    fn controllers_converge_under_random_faults(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..=20,
        jitter_ms in 0u32..=8,
        ctrl_ms in 0u32..=40,
        burst in 1usize..=60,
    ) {
        let mut link = Link::new("ctrl-write", LatencyModel::FixedMs(4.0))
            .with_drop_probability(drop_pct as f64 / 100.0);
        if jitter_ms > 0 {
            link = link.with_jitter(LatencyModel::UniformMs(0.0, jitter_ms as f64));
        }
        let mut space = Space::new(SpaceConfig {
            seed,
            controller_reconcile: LatencyModel::FixedMs(ctrl_ms as f64),
            admission: LatencyModel::FixedMs(1.0),
            controller_write: Some(link),
            ..SpaceConfig::default()
        });
        space.register_kind(lamp_schema());
        let kid = space.create_digi("Lamp", "kid", ack_driver()).unwrap();
        let hub = space.create_digi("Lamp", "hub", Driver::new()).unwrap();
        space.settle(30_000);
        space.mount(&kid, &hub, MountMode::Expose).unwrap();
        space.settle(30_000);
        for i in 0..burst {
            space
                .world
                .api
                .client(dspace_apiserver::ApiServer::ADMIN)
                .namespace("default")
                .patch_path(
                    "Lamp",
                    "kid",
                    ".control.brightness.intent",
                    (i as f64 / burst as f64).into(),
                )
                .unwrap();
        }
        space.pump();
        space.settle(240_000);

        let want = (burst - 1) as f64 / burst as f64;
        prop_assert_eq!(
            space
                .read("hub", ".mount.Lamp.kid.control.brightness.status")
                .unwrap()
                .as_f64(),
            Some(want)
        );
        prop_assert_eq!(space.world.metrics.counter("controller_gave_up"), 0);
        prop_assert_eq!(
            space.world.metrics.counter("reconcile_invariant_violations"),
            0
        );
        prop_assert!(!space.world.has_pending_work(), "queue must quiesce");
    }
}
