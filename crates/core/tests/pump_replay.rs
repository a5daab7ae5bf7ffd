//! Golden replay of the pump under faults: deferred controller planning
//! and driver reconcile compute must leave the final clock, every counter,
//! the full causal trace, and the store dump bit-identical to a digest
//! recorded before the pooled plan phase was deleted — at any shard-thread
//! cap, and under lossy links whose fault schedule is drawn from the
//! shared RNG.

mod common;

use proptest::prelude::*;

use dspace_core::driver::{Driver, Filter};
use dspace_core::graph::MountMode;
use dspace_core::world::LinkSet;
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

/// A scene exercising every planner: the mounter (mounted lamp pair), the
/// syncer (cam → scene pipe), the policer (motion policy), and a driver
/// with real reconcile compute.
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

/// One full run under 5%-drop faults on BOTH fault surfaces: the driver
/// wake/commit link (dropped wakes retransmit after RTO, dropped commits
/// retry with backoff) and the deferred controller write link. Nonzero
/// reconcile/controller/admission latencies force every cycle through the
/// deferred plan → transmit → admit → land pipeline.
fn faulty_run(threads: usize, seed: u64, drop_pct: u32, rounds: usize) -> RunSummary {
    let p = drop_pct as f64 / 100.0;
    let driver_link = Link::new("driver", LatencyModel::FixedMs(8.0))
        .with_jitter(LatencyModel::UniformMs(0.0, 4.0))
        .with_drop_probability(p);
    let write_link = Link::new("ctrl-write", LatencyModel::FixedMs(4.0))
        .with_jitter(LatencyModel::UniformMs(0.0, 3.0))
        .with_drop_probability(p);
    let mut space = build_scene(SpaceConfig {
        seed,
        threads,
        links: LinkSet {
            driver: driver_link,
            ..LinkSet::default()
        },
        reconcile: LatencyModel::FixedMs(15.0),
        controller_reconcile: LatencyModel::FixedMs(10.0),
        admission: LatencyModel::FixedMs(1.0),
        controller_write: Some(write_link),
        ..SpaceConfig::default()
    });
    drive(&mut space, rounds);
    assert!(!space.world.has_pending_work(), "queue must quiesce");
    common::summarize(&space)
}

/// FNV-1a digest of `faulty_run(1, 7, 5, 8)` (and of the same run at the
/// machine's max shard-thread cap), recorded before the pooled plan phase
/// and its `parallel_plan` switch were deleted, with that switch off.
const FAULTY_RUN_GOLDEN: u64 = 0x2a87_6fec_7fc5_d58b;

#[test]
fn faulty_run_reproduces_golden_digest_at_caps_1_and_max() {
    // The one pump path (plan at wake against the live store, driver
    // compute at landing) must replay the recorded serial-planner run bit
    // for bit — clock, counters, trace, store — under 5% drop faults, at
    // shard-thread caps 1 and max.
    for threads in [1, common::max_threads()] {
        let run = faulty_run(threads, 7, 5, 8);
        if threads == 1 {
            assert!(
                run.counters
                    .iter()
                    .any(|(k, v)| (k == "wake_drops" || k.ends_with("_retries")) && *v > 0),
                "the fault schedule must actually drop something"
            );
        }
        assert_eq!(
            run.digest(),
            FAULTY_RUN_GOLDEN,
            "run diverged from the golden digest (threads={threads})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the seed and drop rate, the shard-thread cap is invisible:
    /// caps 1 and max replay the same clock, counters, trace, and store.
    #[test]
    fn thread_cap_is_invisible_under_faults(
        seed in 0u64..1_000_000,
        drop_pct in 0u32..=10,
    ) {
        let one = faulty_run(1, seed, drop_pct, 3);
        let max = faulty_run(common::max_threads(), seed, drop_pct, 3);
        prop_assert_eq!(one, max);
    }
}
