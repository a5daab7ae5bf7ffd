//! The two workloads and the multi-home fleet they run on.
//!
//! Every home starts from the S1 template (Room, two UniLamps, a GeeniLamp
//! and a LifxLamp) in a namespace of its own. `large_fleet` adds the S3
//! motion sensor and reflex to every room; `durable_churn` adds the S9
//! power controller and its idle-power-saving policy. A workload sets only
//! deployment inputs (links, latency models, fault rates, seed, journal
//! directory): every implementation switch of `SpaceConfig` keeps its
//! default, so the benchmark measures what a default user gets.

use std::path::PathBuf;
use std::time::Instant;

use dspace_apiserver::{DurabilityOptions, ObjectRef};
use dspace_bench::fig7::Setup;
use dspace_core::graph::MountMode;
use dspace_core::{Space, SpaceConfig, SpaceError};
use dspace_devices::{GeeniLamp, LifxLamp, RingMotionSensor};
use dspace_digis::{lamps, power, room, sensors};
use dspace_simnet::LatencyModel;
use dspace_value::{yaml, Value};

/// One workload: the fleet's shape, its deployment, and its traffic.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Homes built at set-up.
    pub homes: usize,
    /// Homes that receive motion triggers and lamp yield/unyield actions
    /// (the first `motion_homes` of the fleet). User intents and physical
    /// toggles go to the other homes, since the S3 reflex pins a room that
    /// saw motion in the last 600 s at full brightness.
    pub motion_homes: usize,
    /// Every room carries the S3 motion sensor and reflex.
    pub motion_reflex: bool,
    /// Every home carries the S9 power controller and its policy.
    pub power_saving: bool,
    /// Journal every commit (`DurabilityOptions::new`, default sync).
    pub durable: bool,
    /// Drop probability of the controllers' write link (0 = no fault link).
    pub write_drop: f64,
    /// Room-brightness intents per virtual second, fleet-wide.
    pub intent_hz: f64,
    /// S2 physical lamp toggles per virtual second.
    pub toggle_hz: f64,
    /// Motion triggers per virtual second.
    pub motion_hz: f64,
    /// Dashboard queries per virtual second.
    pub query_hz: f64,
    /// Lamp yield or unyield actions per virtual second.
    pub yield_hz: f64,
    /// Room activity flips per virtual second (S9 policy triggers).
    pub activity_hz: f64,
    /// Virtual seconds between one home joining and one leaving (0 = none).
    pub churn_every_s: f64,
    /// Virtual seconds of traffic before the timed window opens.
    pub warmup_s: f64,
    /// Virtual seconds of the timed window per `--seconds` of run time:
    /// sized so that the window takes about that long on a 2-core host,
    /// while staying a fixed virtual span so that virtual-time metrics
    /// repeat exactly per seed.
    pub window_per_second: f64,
    /// Set-up repetitions per run; `setup_s` reports their median.
    pub setups: usize,
}

/// Both workloads. Rationale per workload is in `fleetbench/README.md`.
pub fn workloads() -> Vec<Spec> {
    vec![
        Spec {
            name: "large_fleet",
            homes: 128,
            motion_homes: 4,
            motion_reflex: true,
            power_saving: false,
            durable: false,
            write_drop: 0.0,
            intent_hz: 50.0,
            toggle_hz: 5.0,
            motion_hz: 5.0,
            query_hz: 50.0,
            yield_hz: 10.0,
            activity_hz: 0.0,
            churn_every_s: 0.0,
            warmup_s: 2.0,
            window_per_second: 1.0,
            setups: 3,
        },
        Spec {
            name: "durable_churn",
            homes: 16,
            motion_homes: 0,
            motion_reflex: false,
            power_saving: true,
            durable: true,
            write_drop: 0.02,
            intent_hz: 4.0,
            toggle_hz: 0.0,
            motion_hz: 0.0,
            query_hz: 10.0,
            yield_hz: 0.0,
            activity_hz: 1.5,
            churn_every_s: 2.0,
            warmup_s: 3.0,
            window_per_second: 13.75,
            setups: 9,
        },
    ]
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Spec> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Initial room brightness of every home (the S1 configuration's intent).
pub const INITIAL_BRIGHTNESS: f64 = 0.5;

/// The digis of one home.
#[derive(Debug, Clone)]
pub struct Home {
    /// Home index; also names its namespace (`h<id>`).
    pub id: usize,
    /// The home's namespace.
    pub ns: String,
    /// The room digivice.
    pub room: ObjectRef,
    /// `"<room>/brightness"`, the user's intent spec.
    pub room_spec: String,
    /// The two UniLamps.
    pub unilamps: [ObjectRef; 2],
    /// The vendor lamps under them (GeeniLamp, LifxLamp).
    pub lamps: [ObjectRef; 2],
    /// The motion sensor (`large_fleet`).
    pub motion: Option<ObjectRef>,
    /// The power controller (`durable_churn`).
    pub pc: Option<ObjectRef>,
    /// The home's idle-power-saving policy name (`durable_churn`).
    pub policy: Option<String>,
}

/// Builds the space configuration of a workload: Fig. 7 on-prem links, a
/// 5 ± 1 ms controller cycle and 1 ms admission, so controller cycles take
/// the deferred plan → land path.
pub fn config(spec: &Spec, seed: u64, journal: Option<PathBuf>) -> SpaceConfig {
    let links = Setup::OnPrem.links();
    let controller_write = (spec.write_drop > 0.0).then(|| {
        links
            .controller
            .clone()
            .with_drop_probability(spec.write_drop)
            .with_jitter(LatencyModel::UniformMs(0.0, 2.0))
    });
    SpaceConfig {
        links,
        seed,
        controller_reconcile: LatencyModel::NormalMs(5.0, 1.0),
        admission: LatencyModel::FixedMs(1.0),
        controller_write,
        durability: journal.map(DurabilityOptions::new),
        ..SpaceConfig::default()
    }
}

/// Creates the space of a workload with every catalogue kind registered.
pub fn new_space(spec: &Spec, seed: u64, journal: Option<PathBuf>) -> Space {
    dspace_digis::new_space_with(config(spec, seed, journal))
}

/// Names the digis of home `id` without creating them.
pub fn home_refs(spec: &Spec, id: usize) -> Home {
    let ns = format!("h{id}");
    let r = |kind: &str, suffix: &str| ObjectRef::new(kind, ns.as_str(), format!("h{id}-{suffix}"));
    let room = r("Room", "room");
    Home {
        id,
        room_spec: format!("{}/brightness", room.name),
        room,
        unilamps: [r("UniLamp", "ul1"), r("UniLamp", "ul2")],
        lamps: [r("GeeniLamp", "l1"), r("LifxLamp", "l2")],
        motion: spec.motion_reflex.then(|| r("RingMotion", "motion")),
        pc: spec.power_saving.then(|| r("PowerController", "pc")),
        policy: spec
            .power_saving
            .then(|| format!("idle-power-saving-h{id}")),
        ns,
    }
}

/// The S3 reflex (configs/s3.yaml), pointed at this home's sensor.
fn motion_reflex(motion: &ObjectRef) -> String {
    format!(
        "if $time - (.mount.RingMotion.{}.obs.last_triggered_time // -600) <= 600 \
         then .control.brightness.intent = 1 else . end",
        motion.name
    )
}

/// The S9 idle-power-saving policy (configs/s9.yaml) for one home.
fn power_policy(home: &Home, pc: &ObjectRef, name: &str) -> Result<Value, SpaceError> {
    let transfer = |from: &ObjectRef, to: &ObjectRef| {
        home.unilamps
            .iter()
            .map(|ul| format!("    - {{action: transfer, child: {ul}, from: {from}, to: {to}}}\n"))
            .collect::<String>()
    };
    let doc = format!(
        "meta: {{kind: Policy, name: {name}, namespace: default}}\n\
         spec:\n  watch: [\"{room}\"]\n  condition: .{room_name}.obs.activity == \"IDLE\"\n\
         \x20 on_rising:\n{rise}  on_falling:\n{fall}",
        room = home.room,
        room_name = home.room.name,
        rise = transfer(&home.room, pc),
        fall = transfer(pc, &home.room),
    );
    yaml::parse(&doc).map_err(|e| SpaceError::BadSpec(format!("policy: {e}")))
}

/// Builds home `id` through the public `Space` API: devices, digis,
/// composition, reflex or policy, and the initial room intent. The host
/// time of each mount call is appended to `verb_us`.
pub fn build_home(
    space: &mut Space,
    spec: &Spec,
    id: usize,
    verb_us: &mut Vec<f64>,
) -> Result<Home, SpaceError> {
    let mut mount = |space: &mut Space, child: &ObjectRef, parent: &ObjectRef| {
        let t0 = Instant::now();
        let r = space.mount(child, parent, MountMode::Expose);
        verb_us.push(t0.elapsed().as_secs_f64() * 1e6);
        r
    };
    let home = home_refs(spec, id);
    let ns = home.ns.as_str();
    let [geeni, lifx] = &home.lamps;
    let l1 = space.create_digi_in("GeeniLamp", ns, &geeni.name, lamps::geeni_driver())?;
    space.attach_actuator(&l1, Box::new(GeeniLamp::new()));
    let l2 = space.create_digi_in("LifxLamp", ns, &lifx.name, lamps::lifx_driver())?;
    space.attach_actuator(&l2, Box::new(LifxLamp::new()));
    for ul in &home.unilamps {
        space.create_digi_in("UniLamp", ns, &ul.name, lamps::unilamp_driver())?;
    }
    space.create_digi_in("Room", ns, &home.room.name, room::room_driver())?;
    for (lamp, ul) in home.lamps.iter().zip(&home.unilamps) {
        mount(space, lamp, ul)?;
        mount(space, ul, &home.room)?;
    }
    if let Some(motion) = &home.motion {
        let m = space.create_digi_in("RingMotion", ns, &motion.name, sensors::motion_driver())?;
        space.attach_actuator(&m, Box::new(RingMotionSensor::with_schedule(Vec::new())));
        mount(space, motion, &home.room)?;
        space.add_reflex(&home.room, "motion-brightness", &motion_reflex(motion), 1)?;
    }
    space.set_intent_now(&home.room_spec, INITIAL_BRIGHTNESS.into())?;
    if let (Some(pc), Some(policy)) = (&home.pc, &home.policy) {
        space.create_digi_in("PowerController", ns, &pc.name, power::power_driver())?;
        for ul in &home.unilamps {
            mount(space, ul, pc)?;
        }
        space.set_intent_now(&format!("{}/saving", pc.name), "on".into())?;
        let model = power_policy(&home, pc, policy)?;
        space.add_policy(policy, model)?;
    }
    Ok(home)
}

/// Removes a home: its namespace (digis, drivers, devices, edges) and its
/// policy object.
pub fn remove_home(space: &mut Space, home: &Home) -> Result<(), SpaceError> {
    space.delete_namespace(&home.ns)?;
    if let Some(policy) = &home.policy {
        space
            .world
            .api
            .client(Space::USER)
            .namespace("default")
            .delete("Policy", policy)?;
        space.pump();
    }
    Ok(())
}

/// Settles a space to quiescence; background device polls do not count.
pub fn settle(space: &mut Space) {
    space.settle(60_000);
}
