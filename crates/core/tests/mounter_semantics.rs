//! Focused tests of the Mounter's §5.2 semantics: hide/expose modes,
//! status-never-flows-southbound, child-intent northbound flow, and the
//! version gate.

use dspace_core::actuator::EchoActuator;
use dspace_core::driver::Driver;
use dspace_core::graph::MountMode;
use dspace_core::{Space, SpaceConfig};
use dspace_simnet::millis;
use dspace_value::{AttrType, KindSchema, Value};

fn space_with_chain(mode: MountMode) -> (Space, dspace_apiserver::ObjectRef) {
    let mut space = Space::new(SpaceConfig::default());
    space.register_kind(
        KindSchema::digivice("digi.dev", "v1", "Node")
            .control("level", AttrType::Number)
            .obs("note", AttrType::String)
            .mounts("Node"),
    );
    // grandchild -> child -> parent, with the child mounted under `mode`.
    let gc = space.create_digi("Node", "gc", Driver::new()).unwrap();
    let ch = space.create_digi("Node", "ch", Driver::new()).unwrap();
    let pa = space.create_digi("Node", "pa", Driver::new()).unwrap();
    space.mount(&gc, &ch, MountMode::Expose).unwrap();
    space.run_for_ms(500);
    space.mount(&ch, &pa, mode).unwrap();
    space.run_for_ms(1_000);
    (space, pa)
}

#[test]
fn expose_mode_reveals_grandchild_replicas() {
    let (space, pa) = space_with_chain(MountMode::Expose);
    let nested = space
        .world
        .api
        .get_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.mount.Node.gc",
        )
        .unwrap();
    assert!(!nested.is_null(), "grandchild replica should be exposed");
}

#[test]
fn hide_mode_conceals_grandchild_replicas() {
    let (space, pa) = space_with_chain(MountMode::Hide);
    let nested = space
        .world
        .api
        .get_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.mount",
        )
        .unwrap();
    assert!(
        nested.is_null(),
        "hide mode must conceal the child's own mounts, got {nested}"
    );
    // But the child's control state is still visible.
    let control = space
        .world
        .api
        .get_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.control",
        )
        .unwrap();
    assert!(!control.is_null());
}

#[test]
fn nested_intent_write_through_exposed_replicas() {
    let (mut space, pa) = space_with_chain(MountMode::Expose);
    // The parent writes the *grandchild's* intent through two replica
    // levels; the mounter relays hop by hop.
    space
        .world
        .api
        .patch_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.mount.Node.gc.control.level.intent",
            Value::from(0.42),
        )
        .unwrap();
    space.pump();
    space.run_for_ms(3_000);
    assert_eq!(space.intent("gc/level").unwrap().as_f64(), Some(0.42));
}

#[test]
fn status_never_flows_southbound() {
    let (mut space, pa) = space_with_chain(MountMode::Expose);
    // A (buggy or malicious) parent writes a *status* into the replica.
    space
        .world
        .api
        .patch_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.control.level.status",
            Value::from(0.99),
        )
        .unwrap();
    space.pump();
    space.run_for_ms(3_000);
    // The child's real status is untouched ("status information should
    // never flow southbound", §5.2); the mounter's next northbound sync
    // repairs the replica.
    assert!(space.status("ch/level").unwrap().is_null());
    let replica_status = space
        .world
        .api
        .get_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.control.level.status",
        )
        .unwrap();
    assert!(
        replica_status.is_null(),
        "replica should be repaired, got {replica_status}"
    );
}

#[test]
fn child_intent_flows_northbound_for_reconciliation() {
    let (mut space, pa) = space_with_chain(MountMode::Expose);
    // The child's own intent changes (e.g. a physical interaction): the
    // mounter copies it into the parent's replica so the parent driver
    // can reconcile (§5.2: "It will, however, sync .intent updates from
    // MA to the model replica to allow intent reconciliation").
    space.set_intent_now("ch/level", 0.7.into()).unwrap();
    space.run_for_ms(2_000);
    let replica_intent = space
        .world
        .api
        .get_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.control.level.intent",
        )
        .unwrap();
    assert_eq!(replica_intent.as_f64(), Some(0.7));
}

#[test]
fn replica_tracks_child_generation() {
    let (mut space, pa) = space_with_chain(MountMode::Expose);
    let read_gen = |space: &Space| {
        space
            .world
            .api
            .get_path(
                dspace_apiserver::ApiServer::ADMIN,
                &pa,
                ".mount.Node.ch.gen",
            )
            .unwrap()
            .as_f64()
            .unwrap()
    };
    let g1 = read_gen(&space);
    space.set_intent_now("ch/level", 0.3.into()).unwrap();
    space.run_for_ms(2_000);
    let g2 = read_gen(&space);
    assert!(
        g2 > g1,
        "replica gen must advance with the child ({g1} -> {g2})"
    );
}

#[test]
fn parent_write_survives_concurrent_child_update() {
    // The three-way-merge/version-gate path: the parent writes an intent
    // into the replica in the same instant the child's model changes; the
    // parent's write must not be lost to the northbound refresh.
    let mut space = Space::new(SpaceConfig::default());
    space.register_kind(
        KindSchema::digivice("digi.dev", "v1", "Node")
            .control("level", AttrType::Number)
            .obs("note", AttrType::String)
            .mounts("Node"),
    );
    let ch = space.create_digi("Node", "ch", Driver::new()).unwrap();
    space.attach_actuator(&ch, Box::new(EchoActuator::new("echo", millis(100))));
    let pa = space.create_digi("Node", "pa", Driver::new()).unwrap();
    space.mount(&ch, &pa, MountMode::Expose).unwrap();
    space.run_for_ms(1_000);
    // Same instant: the parent decides an intent while the child posts an
    // observation (its model version bumps).
    space
        .world
        .api
        .patch_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.control.level.intent",
            Value::from(0.55),
        )
        .unwrap();
    space
        .world
        .api
        .patch_path(
            dspace_apiserver::ApiServer::ADMIN,
            &ch,
            ".obs.note",
            Value::from("concurrent"),
        )
        .unwrap();
    space.pump();
    space.run_for_ms(3_000);
    // Both effects land: the child has the parent's intent AND the obs.
    assert_eq!(space.intent("ch/level").unwrap().as_f64(), Some(0.55));
    assert_eq!(space.obs("ch/note").unwrap().as_str(), Some("concurrent"));
}

#[test]
fn version_gate_is_exact_past_f64_precision() {
    // Generations live in `meta.gen` of a JSON model; the gate used to
    // round-trip them through `f64`, where 2^53 and 2^53+1 collapse to the
    // same number — so a replica exactly one version stale slipped the
    // gate. Store and compare them as u64 end-to-end.
    use dspace_apiserver::{ApiServer, ObjectRef, Query, Role, Rule};
    use dspace_core::mounter::{Mounter, SUBJECT};
    use std::cell::RefCell;
    use std::rc::Rc;

    const BIG: u64 = 1 << 53;

    let mut api = ApiServer::new();
    api.rbac_mut()
        .add_role(Role::new("controller", vec![Rule::allow_all()]));
    api.rbac_mut().bind(SUBJECT, "controller");
    let admin = ApiServer::ADMIN;
    let w = api.watch_query(admin, &Query::all()).unwrap();

    let graph = Rc::new(RefCell::new(dspace_core::DigiGraph::new()));
    let mut mounter = Mounter::new();

    let ch = ObjectRef::default_ns("Node", "ch");
    let pa = ObjectRef::default_ns("Node", "pa");
    let model = |name: &str| {
        dspace_value::json::parse(&format!(
            r#"{{"meta": {{"kind": "Node", "name": "{name}", "namespace": "default"}},
                 "control": {{"level": {{}}}}}}"#
        ))
        .unwrap()
    };
    api.create(admin, &ch, model("ch")).unwrap();
    api.create(admin, &pa, model("pa")).unwrap();
    graph.borrow_mut().mount(&ch, &pa, MountMode::Hide).unwrap();

    // Place the child deep into its mutation history, then advance it one
    // more step: its generation becomes 2^53 + 1 (string-encoded, exact).
    api.fast_forward(admin, &ch, BIG).unwrap();
    api.patch_path(admin, &ch, ".obs.note", "fresh".into())
        .unwrap();
    assert_eq!(
        api.get_path(admin, &ch, ".meta.gen")
            .unwrap()
            .as_exact_u64(),
        Some(BIG + 1),
        "generation must survive storage exactly"
    );
    api.poll(w);

    // The parent holds a replica captured at gen 2^53 — one version
    // stale, but indistinguishable from 2^53+1 after an f64 round-trip.
    let mut replica = dspace_value::json::parse(
        r#"{"mode": "hide", "status": "active",
            "control": {"level": {"intent": 0.9}}}"#,
    )
    .unwrap();
    replica
        .set(&".gen".parse().unwrap(), Value::from_exact_u64(BIG))
        .unwrap();
    api.patch_path(admin, &pa, ".mount.Node.ch", replica)
        .unwrap();

    let mut trace = dspace_core::Trace::new();
    let events = api.poll(w);
    mounter.process(&mut api, &graph, &events, &mut trace, 0);
    assert!(
        api.get_path(admin, &ch, ".control.level.intent")
            .unwrap()
            .is_null(),
        "replica at gen 2^53 is stale against child gen 2^53+1 and must not sync"
    );

    // After the northbound refresh advances the replica's gen, the
    // pending intent syncs — delayed, not lost.
    for _ in 0..8 {
        let events = api.poll(w);
        if events.is_empty() {
            break;
        }
        mounter.process(&mut api, &graph, &events, &mut trace, 0);
    }
    assert_eq!(
        api.get_path(admin, &ch, ".control.level.intent")
            .unwrap()
            .as_f64(),
        Some(0.9)
    );
    // And the replica's gen now mirrors the child's exactly, past 2^53.
    let replica_gen = api
        .get_path(admin, &pa, ".mount.Node.ch.gen")
        .unwrap()
        .as_exact_u64()
        .unwrap();
    let child_gen = api
        .get_path(admin, &ch, ".meta.gen")
        .unwrap()
        .as_exact_u64()
        .unwrap();
    assert_eq!(replica_gen, child_gen);
    assert!(replica_gen > BIG);
}

#[test]
fn stale_replica_does_not_sync_southbound() {
    // The §5.2 version gate, driven directly: a replica whose `gen` lags
    // the child's model version carries decisions made against an outdated
    // view, and must NOT be written southbound until the northbound
    // refresh has landed.
    use dspace_apiserver::{ApiServer, ObjectRef, Query, Role, Rule};
    use dspace_core::mounter::{Mounter, SUBJECT};
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut api = ApiServer::new();
    api.rbac_mut()
        .add_role(Role::new("controller", vec![Rule::allow_all()]));
    api.rbac_mut().bind(SUBJECT, "controller");
    let admin = ApiServer::ADMIN;
    let w = api.watch_query(admin, &Query::all()).unwrap();

    let graph = Rc::new(RefCell::new(dspace_core::DigiGraph::new()));
    let mut mounter = Mounter::new();

    let ch = ObjectRef::default_ns("Node", "ch");
    let pa = ObjectRef::default_ns("Node", "pa");
    let model = |name: &str| {
        dspace_value::json::parse(&format!(
            r#"{{"meta": {{"kind": "Node", "name": "{name}", "namespace": "default"}},
                 "control": {{"level": {{}}}}}}"#
        ))
        .unwrap()
    };
    api.create(admin, &ch, model("ch")).unwrap();
    api.create(admin, &pa, model("pa")).unwrap();
    graph.borrow_mut().mount(&ch, &pa, MountMode::Hide).unwrap();

    // The child moves ahead: its model version advances past the replica.
    api.patch_path(admin, &ch, ".obs.note", "v2".into())
        .unwrap();
    api.patch_path(admin, &ch, ".obs.note", "v3".into())
        .unwrap();
    let child_gen = api
        .get_path(admin, &ch, ".meta.gen")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(child_gen > 1.0);

    // Drain the setup events so the mounter's next batch contains only
    // the parent's stale write (no child event to refresh from first).
    api.poll(w);

    // The parent holds a STALE replica (gen 1, from before the child
    // moved) carrying an intent decided against that outdated view.
    let replica = dspace_value::json::parse(
        r#"{"mode": "hide", "status": "active", "gen": 1,
            "control": {"level": {"intent": 0.9}}}"#,
    )
    .unwrap();
    api.patch_path(admin, &pa, ".mount.Node.ch", replica)
        .unwrap();

    let mut trace = dspace_core::Trace::new();
    let events = api.poll(w);
    mounter.process(&mut api, &graph, &events, &mut trace, 0);
    assert!(
        api.get_path(admin, &ch, ".control.level.intent")
            .unwrap()
            .is_null(),
        "stale replica (gen 1 < child gen {child_gen}) must not sync southbound"
    );

    // The northbound refresh advanced the replica's gen; the parent's
    // still-pending intent syncs on the next event round — the gate delays
    // it, it doesn't lose it.
    for _ in 0..8 {
        let events = api.poll(w);
        if events.is_empty() {
            break;
        }
        mounter.process(&mut api, &graph, &events, &mut trace, 0);
    }
    assert_eq!(
        api.get_path(admin, &ch, ".control.level.intent")
            .unwrap()
            .as_f64(),
        Some(0.9)
    );
}

#[test]
fn unyield_delivers_an_intent_written_while_yielded() {
    // Child and replica stay otherwise unchanged throughout, so only the
    // edge state separates "hold the parent's write" from "deliver it":
    // a settled-edge record must not outlive a state change.
    let (mut space, pa) = space_with_chain(MountMode::Expose);
    let ch = dspace_apiserver::ObjectRef::default_ns("Node", "ch");
    space.yield_(&ch, &pa).unwrap();
    space.run_for_ms(1_000);
    space
        .world
        .api
        .patch_path(
            dspace_apiserver::ApiServer::ADMIN,
            &pa,
            ".mount.Node.ch.control.level.intent",
            Value::from(0.33),
        )
        .unwrap();
    space.pump();
    space.run_for_ms(2_000);
    assert!(
        space.intent("ch/level").unwrap().is_null(),
        "a yielded parent's intent must not reach the child"
    );
    space.unyield(&ch, &pa).unwrap();
    space.run_for_ms(2_000);
    assert_eq!(space.intent("ch/level").unwrap().as_f64(), Some(0.33));
}
