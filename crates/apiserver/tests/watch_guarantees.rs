//! Property tests for the §3.5 runtime guarantee.
//!
//! "The dSpace runtime guarantees that if a writer sees updates to a model
//! with two version numbers Va and Vb (Va < Vb), then it must have also
//! seen all updates with version number between the two" — we test the
//! stronger invariant the store provides: watchers observe every version
//! of every object they watch, in order, with no gaps or duplicates,
//! regardless of how reads interleave with writes.

use proptest::prelude::*;

use dspace_apiserver::{ApiServer, ObjectRef, Query, WatchEventKind, WatchId};
use dspace_value::Value;

/// One scripted step of the interleaving.
#[derive(Debug, Clone)]
enum Step {
    /// Write to object `i`.
    Write(usize),
    /// Poll watcher `j`.
    Poll(usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..3).prop_map(Step::Write),
            (0usize..2).prop_map(Step::Poll),
        ],
        1..120,
    )
}

proptest! {
    #[test]
    fn watchers_see_ordered_gap_free_versions(steps in arb_steps()) {
        let mut api = ApiServer::new();
        let objects: Vec<ObjectRef> = (0..3)
            .map(|i| ObjectRef::default_ns("Thing", format!("t{i}")))
            .collect();
        for oref in &objects {
            let model = dspace_value::json::parse(&format!(
                r#"{{"meta": {{"kind": "Thing", "name": "{}", "namespace": "default"}}, "n": 0}}"#,
                oref.name
            )).unwrap();
            api.create(ApiServer::ADMIN, oref, model).unwrap();
        }
        let watchers = [
            api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap(),
            api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap(),
        ];
        // seen[w][obj] = versions delivered so far to watcher w.
        let mut seen: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); 3]; 2];
        let run_step = |api: &mut ApiServer, step: &Step, seen: &mut Vec<Vec<Vec<u64>>>| {
            match step {
                Step::Write(i) => {
                    api.patch_path(ApiServer::ADMIN, &objects[*i], ".n", Value::from(1.0)).unwrap();
                }
                Step::Poll(j) => {
                    let mut last_rev = 0;
                    for ev in api.poll(watchers[*j]) {
                        prop_assert!(ev.revision > last_rev, "revisions out of order");
                        last_rev = ev.revision;
                        prop_assert_eq!(ev.kind, WatchEventKind::Modified);
                        let idx = objects.iter().position(|o| *o == ev.oref).unwrap();
                        seen[*j][idx].push(ev.resource_version);
                    }
                }
            }
            Ok(())
        };
        let mut writes = [0u64; 3];
        for step in &steps {
            if let Step::Write(i) = step { writes[*i] += 1; }
            run_step(&mut api, step, &mut seen)?;
        }
        // Final drain so every watcher catches up.
        for j in 0..2 {
            run_step(&mut api, &Step::Poll(j), &mut seen)?;
        }
        for (w, streams) in seen.iter().enumerate() {
            for (i, versions) in streams.iter().enumerate() {
                // Versions start at 2 (creation was before the watch) and
                // are consecutive: no gaps, no duplicates, no reordering.
                let expect: Vec<u64> = (2..2 + writes[i]).collect();
                prop_assert_eq!(versions, &expect, "watcher {} object {}", w, i);
            }
        }
    }

    /// Optimistic concurrency: with randomized interleavings of two
    /// read-modify-write actors, every successful OCC write is based on
    /// the version it observed, so no update is ever lost.
    #[test]
    fn occ_prevents_lost_updates(ops in prop::collection::vec(0usize..2, 1..60)) {
        let mut api = ApiServer::new();
        let oref = ObjectRef::default_ns("Counter", "c");
        let model = dspace_value::json::parse(
            r#"{"meta": {"kind": "Counter", "name": "c", "namespace": "default"}, "n": 0}"#,
        ).unwrap();
        api.create(ApiServer::ADMIN, &oref, model).unwrap();

        // Each actor holds a possibly-stale snapshot and tries OCC writes.
        let mut snapshots: Vec<Option<(u64, f64)>> = vec![None, None];
        let mut successful_increments = 0u64;
        for actor in ops {
            match snapshots[actor].take() {
                None => {
                    let obj = api.get(ApiServer::ADMIN, &oref).unwrap();
                    let n = obj.model.get_path(".n").unwrap().as_f64().unwrap();
                    snapshots[actor] = Some((obj.resource_version, n));
                }
                Some((rv, n)) => {
                    let mut m = (*api.get(ApiServer::ADMIN, &oref).unwrap().model).clone();
                    m.set(&".n".parse().unwrap(), Value::from(n + 1.0)).unwrap();
                    match api.update(ApiServer::ADMIN, &oref, m, Some(rv)) {
                        Ok(_) => successful_increments += 1,
                        Err(dspace_apiserver::ApiError::Conflict { .. }) => {}
                        Err(e) => prop_assert!(false, "unexpected error {e}"),
                    }
                }
            }
        }
        let final_n = api
            .get_path(ApiServer::ADMIN, &oref, ".n")
            .unwrap()
            .as_f64()
            .unwrap() as u64;
        prop_assert_eq!(final_n, successful_increments, "an update was lost");
    }

    /// The §3.5 guarantee holds per *filtered* stream: a per-object
    /// subscription (what digi drivers use) sees every version of its
    /// object in order with no gaps — and nothing else — even while log
    /// compaction runs underneath for faster watchers.
    #[test]
    fn object_selector_streams_are_gap_free_across_compaction(steps in arb_steps()) {
        let mut api = ApiServer::new();
        let objects: Vec<ObjectRef> = (0..3)
            .map(|i| ObjectRef::default_ns("Thing", format!("t{i}")))
            .collect();
        for oref in &objects {
            let model = dspace_value::json::parse(&format!(
                r#"{{"meta": {{"kind": "Thing", "name": "{}", "namespace": "default"}}, "n": 0}}"#,
                oref.name
            )).unwrap();
            api.create(ApiServer::ADMIN, oref, model).unwrap();
        }
        // One per-object subscription per digi. The random Poll steps only
        // ever touch watchers 0 and 1, so watcher 2 lags arbitrarily far:
        // its entries must survive compaction until the final drain.
        let watchers: Vec<WatchId> = objects
            .iter()
            .map(|o| {
                let q = Query::kind(o.kind.as_str()).in_ns(o.namespace.as_str()).named(o.name.as_str());
                api.watch_query(ApiServer::ADMIN, &q).unwrap()
            })
            .collect();
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut writes = [0u64; 3];
        for step in &steps {
            match step {
                Step::Write(i) => {
                    writes[*i] += 1;
                    api.patch_path(ApiServer::ADMIN, &objects[*i], ".n", Value::from(1.0)).unwrap();
                }
                Step::Poll(j) => {
                    for ev in api.poll(watchers[*j]) {
                        prop_assert_eq!(&ev.oref, &objects[*j], "foreign event leaked into object stream");
                        seen[*j].push(ev.resource_version);
                    }
                }
            }
        }
        // Final drain: every stream — including the laggard's — is complete.
        for j in 0..3 {
            for ev in api.poll(watchers[j]) {
                prop_assert_eq!(&ev.oref, &objects[j], "foreign event leaked into object stream");
                seen[j].push(ev.resource_version);
            }
        }
        for (i, versions) in seen.iter().enumerate() {
            let expect: Vec<u64> = (2..2 + writes[i]).collect();
            prop_assert_eq!(versions, &expect, "object {} stream has gaps/reorders", i);
        }
        // All drained: the log is fully compacted regardless of how many
        // writes the run made.
        prop_assert_eq!(api.log_len(), 0, "drained watchers must not hold the log");
    }

    /// Cancelling a subscription releases its compaction hold: a laggard
    /// watcher pins the log tail only while it is alive.
    #[test]
    fn cancel_watch_releases_compaction_hold(writes in 1usize..80) {
        let mut api = ApiServer::new();
        let oref = ObjectRef::default_ns("Thing", "t");
        let model = dspace_value::json::parse(
            r#"{"meta": {"kind": "Thing", "name": "t", "namespace": "default"}, "n": 0}"#,
        ).unwrap();
        api.create(ApiServer::ADMIN, &oref, model).unwrap();
        let laggard = api.watch_query(ApiServer::ADMIN, &Query::kind("Thing")).unwrap();
        for _ in 0..writes {
            api.patch_path(ApiServer::ADMIN, &oref, ".n", Value::from(1.0)).unwrap();
        }
        prop_assert_eq!(api.log_len(), writes, "laggard must pin undelivered events");
        api.cancel_watch(laggard);
        prop_assert_eq!(api.log_len(), 0, "cancel must release the log");
        prop_assert!(api.poll(laggard).is_empty());
    }
}

/// A widened subscription delivers only events committed after the
/// widening, even while older events are still pending through its
/// original selectors: the new selector must not reach back into the
/// pending window, and the pending count that sizes the wake must agree
/// with what the poll hands out.
#[test]
fn extend_watch_never_delivers_events_older_than_the_new_selector() {
    let mut api = ApiServer::new();
    let thing = |kind: &str, name: &str| {
        let oref = ObjectRef::new(kind, "h1", name);
        let model = dspace_value::json::parse(&format!(
            r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "h1"}}, "n": 0}}"#
        ))
        .unwrap();
        (oref, model)
    };
    let (a, model_a) = thing("A", "a");
    let (b, model_b) = thing("B", "b");
    let w = api
        .watch_query(ApiServer::ADMIN, &Query::kind("A").in_ns("h1"))
        .unwrap();
    api.create(ApiServer::ADMIN, &a, model_a).unwrap();
    api.create(ApiServer::ADMIN, &b, model_b).unwrap();
    for widen in [
        Query::kind("B").in_ns("h1"),
        Query::kind("B").in_ns("h1").named("b"),
        Query::kind("B"),
        Query::all(),
    ] {
        api.extend_watch(ApiServer::ADMIN, w, &widen).unwrap();
    }
    let (pending, _) = api.pending_totals(w);
    assert_eq!(pending, 1, "only A/a was committed inside the subscription");
    let events = api.poll(w);
    let seen: Vec<&ObjectRef> = events.iter().map(|e| &e.oref).collect();
    assert_eq!(seen, vec![&a], "B/b predates every selector that covers it");
    assert!(!api.has_pending(w));
    api.audit_sizes().unwrap();

    // Events after the widening flow through the new selectors, once.
    api.patch_path(ApiServer::ADMIN, &b, ".n", Value::from(1.0))
        .unwrap();
    assert_eq!(api.pending_totals(w).0, 1);
    let events = api.poll(w);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].oref, b);
    assert_eq!(events[0].resource_version, 2);
}
