//! The Mounter controller (§5.2 of the paper).
//!
//! When digi A is mounted to digivice B, the mounter synchronizes state
//! between A's model and the *model replica* of A stored under B's
//! `.mount.<Kind>.<name>` attribute:
//!
//! - **northbound** (A → replica): `control.*.status`, `control.*.intent`
//!   (so parent drivers observe child-initiated intent changes and can run
//!   intent reconciliation, §3.5), `obs`, `data.*`, and — under `expose`
//!   mode — A's own `.mount` subtree; the replica's `gen` is set to A's
//!   model version.
//! - **southbound** (replica → A): `control.*.intent` and `data.input.*`
//!   writes made by B's driver, *never* `.status` ("status information
//!   should never flow southbound"), only while B's mount is **active**
//!   (not yielded), and only when the replica's version number is no less
//!   than A's (the version gate of §5.2).
//!
//! Concurrent parent/child writes are resolved with a three-way merge
//! against the replica content the mounter last wrote (its *shadow*):
//! fields the parent changed since then are parent-pending southbound
//! writes and survive northbound refreshes.

use std::collections::{BTreeMap, BTreeSet};

use dspace_apiserver::{ApiServer, ObjectRef, WatchEvent, WatchEventKind};
use dspace_simnet::Time;
use dspace_value::{Path, Value};

use crate::batch::WriteBatch;
use crate::graph::{DigiGraph, EdgeState, MountEdge, MountMode};
use crate::model::{MOUNT_ACTIVE, MOUNT_YIELDED};
use crate::trace::{Trace, TraceKind};

/// The apiserver subject the mounter authenticates as.
pub const SUBJECT: &str = "controller:mounter";

/// A trace entry to emit iff the write behind `ticket` commits.
struct TraceEffect {
    ticket: usize,
    subject: String,
    detail: String,
}

/// A planned mounter cycle: queued writes plus success-gated trace
/// effects. Planning runs against the live store at wake; the plan can
/// land immediately (inline path) or later, after simulated
/// reconcile/link/admission delays (async controller runtime).
pub(crate) struct MounterPlan {
    pub(crate) batch: WriteBatch,
    effects: Vec<TraceEffect>,
}

impl MounterPlan {
    /// Commits inline (non-OCC, legacy semantics) and emits gated traces.
    pub(crate) fn land(self, api: &mut ApiServer, trace: &mut Trace, now: Time) {
        let results = self.batch.commit(api);
        for e in self.effects {
            if results[e.ticket].is_ok() {
                trace.push(now, TraceKind::Composition, e.subject, e.detail);
            }
        }
    }

    /// Commits with OCC re-validation against the plan's snapshot rvs and
    /// emits gated traces; returns how many ops failed validation.
    pub(crate) fn land_occ(self, api: &mut ApiServer, trace: &mut Trace, now: Time) -> u64 {
        let (results, conflicts) = self.batch.commit_occ(api);
        for e in self.effects {
            if results[e.ticket].is_ok() {
                trace.push(now, TraceKind::Composition, e.subject, e.detail);
            }
        }
        conflicts
    }
}

/// The Mounter controller.
///
/// Holds no handle to the runtime's digi-graph: every pass is handed the
/// live graph cell to read.
pub struct Mounter {
    /// Per-(parent, child) memory of every edge the mounter synced.
    edges: BTreeMap<(ObjectRef, ObjectRef), EdgeMemo>,
    /// Commit all of a pump cycle's writes as one `apply_batch` call.
    batched: bool,
    /// Edge syncs that ran [`decide`] (skipped clean edges excluded).
    #[cfg(test)]
    full_syncs: u64,
}

/// The mounter's memory of one mount edge.
struct EdgeMemo {
    /// Replica content as last written by the mounter: the base of the
    /// three-way merge.
    shadow: Value,
    /// Set while a re-sync is known to be a no-op.
    clean: Option<Clean>,
}

/// The inputs under which a re-sync of an edge would queue nothing and
/// leave the shadow as it is. [`decide`] is a function of the stored
/// replica, the child's model, the shadow, and the edge's mode and state;
/// a resource version read from the store names one child model, so
/// matching all of them makes the sync skippable.
struct Clean {
    /// The child's resource version, as read from the store.
    child_rv: u64,
    mode: MountMode,
    state: EdgeState,
    /// The replica the parent holds once the sync's writes landed, when
    /// it is not the shadow.
    expected: Option<Value>,
}

impl EdgeMemo {
    /// `true` if syncing the edge against these inputs is a no-op.
    fn is_clean(&self, child_rv: u64, mode: MountMode, state: EdgeState, replica: &Value) -> bool {
        self.clean.as_ref().is_some_and(|c| {
            c.child_rv == child_rv
                && c.mode == mode
                && c.state == state
                && *replica == *c.expected.as_ref().unwrap_or(&self.shadow)
        })
    }
}

/// What one edge sync decides, before anything is queued.
struct EdgeSync {
    /// The replica the parent should hold: the child's northbound view
    /// plus the parent-pending southbound leaves.
    candidate: Value,
    /// The child's northbound view alone, when parent-pending leaves
    /// changed it (`None`: it equals `candidate`).
    fresh: Option<Value>,
    /// The candidate differs from the stored replica.
    write_north: bool,
    /// Intent/input leaves the child must take.
    south: Option<Value>,
    /// The edge is active and passed the version gate.
    synced_south: bool,
}

impl EdgeSync {
    /// The shadow after this sync (see [`Mounter::sync_edge`]).
    #[cfg(debug_assertions)]
    fn shadow(&self) -> &Value {
        match &self.fresh {
            Some(fresh) if !self.synced_south => fresh,
            _ => &self.candidate,
        }
    }
}

impl Default for Mounter {
    fn default() -> Self {
        Self::new()
    }
}

impl Mounter {
    /// Creates a mounter.
    pub fn new() -> Self {
        Mounter {
            edges: BTreeMap::new(),
            batched: true,
            #[cfg(test)]
            full_syncs: 0,
        }
    }

    /// Switches between batched (one `apply_batch` per pump cycle) and
    /// legacy per-op writes. Both modes make identical decisions and
    /// leave identical store state.
    pub fn set_batched(&mut self, batched: bool) {
        self.batched = batched;
    }

    /// Processes a batch of watch events: re-synchronizes every mount edge
    /// adjacent to an object that changed. All writes of the pass commit
    /// as one batch; trace entries for southbound syncs are emitted after
    /// the commit, gated on their op's result.
    pub fn process(
        &mut self,
        api: &mut ApiServer,
        graph: &std::cell::RefCell<DigiGraph>,
        events: &[WatchEvent],
        trace: &mut Trace,
        now: Time,
    ) {
        let plan = self.plan(api, graph, events, false);
        plan.land(api, trace, now);
    }

    /// Drains a batch of watch events into a landable plan without
    /// committing anything: re-synchronizes every mount edge adjacent to
    /// an object that changed, queueing writes (and success-gated trace
    /// effects) on the returned plan. `force_batched` overrides the
    /// per-op compatibility mode for deferred landings, which must commit
    /// as one `apply_batch` transfer.
    pub(crate) fn plan(
        &mut self,
        api: &mut ApiServer,
        graph: &std::cell::RefCell<DigiGraph>,
        events: &[WatchEvent],
        force_batched: bool,
    ) -> MounterPlan {
        // Dedup with a set: a burst batch repeats the same oref many
        // times, and `Vec::contains` made this scan quadratic.
        let mut affected: BTreeSet<ObjectRef> = BTreeSet::new();
        let mut deleted: BTreeSet<&ObjectRef> = BTreeSet::new();
        for ev in events {
            if ev.oref.kind == "Sync" || ev.oref.kind == "Policy" {
                continue;
            }
            if ev.kind == WatchEventKind::Deleted {
                deleted.insert(&ev.oref);
            }
            affected.insert(ev.oref.clone());
        }
        // A deleted digi's edges are gone with it; a digi recreated under
        // the same name restarts its resource versions, so its memory must
        // not outlive the deletion.
        if !deleted.is_empty() {
            self.edges
                .retain(|(p, c), _| !deleted.contains(p) && !deleted.contains(c));
        }
        let mut batch = WriteBatch::new(SUBJECT, self.batched || force_batched);
        let mut effects: Vec<TraceEffect> = Vec::new();
        for oref in affected {
            // One O(degree) pass per changed digi: the graph's endpoint
            // index hands back full edges (payload included), so there is
            // no per-neighbor `edge()` re-lookup. The borrow ends before
            // any write: in per-op write mode each write commits at once,
            // and the topology webhook re-borrows the cell mutably.
            let edges = graph.borrow().adjacent_edges(&oref);
            for edge in edges {
                self.sync_edge(api, &mut batch, edge, &mut effects);
            }
        }
        MounterPlan { batch, effects }
    }

    /// Synchronizes one mount edge in both directions, queueing writes on
    /// `batch` and success-gated trace entries on `effects`. An edge whose
    /// inputs match its clean record is skipped.
    fn sync_edge(
        &mut self,
        api: &mut ApiServer,
        batch: &mut WriteBatch,
        edge: MountEdge,
        effects: &mut Vec<TraceEffect>,
    ) {
        let MountEdge {
            parent,
            child,
            mode,
            state,
        } = edge;
        // Reads go through the batch so an edge synced later in the pass
        // observes the writes of earlier edges, exactly as it would have
        // observed their commits under per-op writes.
        let Ok((parent_model, _)) = batch.get(api, &parent) else {
            return;
        };
        let Ok((child_model, child_rv)) = batch.get(api, &child) else {
            return;
        };
        let replica_path = crate::model::replica_path(&child.kind, &child.name);
        let replica = match parent_model.get_path(&replica_path) {
            Some(r) if !r.is_null() => r,
            // The mount reference is gone from the model (unmount raced);
            // the topology webhook will drop the edge shortly.
            _ => return,
        };
        // An overlay version is only simulated: if this batch is lost, the
        // store may later reach the same number with other content.
        let child_from_store = !batch.staged(&child);
        let key = (parent, child);
        let memo = self.edges.get(&key);
        if let Some(memo) = memo {
            if child_from_store && memo.is_clean(child_rv, mode, state, replica) {
                #[cfg(debug_assertions)]
                {
                    let again = decide(mode, state, replica, &child_model, &memo.shadow);
                    debug_assert!(
                        !again.write_north && again.south.is_none(),
                        "clean edge {} -> {} would write",
                        key.0,
                        key.1
                    );
                    debug_assert!(
                        *again.shadow() == memo.shadow,
                        "clean edge {} -> {} would move its shadow",
                        key.0,
                        key.1
                    );
                }
                return;
            }
        }
        let empty = dspace_value::obj();
        let shadow = memo.map_or(&empty, |m| &m.shadow);
        let sync = decide(mode, state, replica, &child_model, shadow);
        #[cfg(test)]
        {
            self.full_syncs += 1;
        }
        // Release the read handles before any write: a model is written in
        // place only while no reader still holds it, so a live handle would
        // deep-copy the whole parent model on every northbound refresh.
        drop(parent_model);
        drop(child_model);
        // Clean when nothing went south and a re-sync recomputes this very
        // candidate and shadow: the candidate is the child's view alone
        // (any later sync reads it back as the replica and finds nothing
        // pending), or the edge is yielded (parent-pending leaves stay
        // pending and never pass the gate).
        let clean = child_from_store
            && sync.south.is_none()
            && (sync.fresh.is_none() || state == EdgeState::Yielded);
        let north = sync.write_north.then(|| sync.candidate.clone());
        queue_sync(api, batch, &key, &replica_path, north, sync.south, effects);
        // Only a southbound-synced candidate becomes the new shadow; when
        // the gate (or a yielded edge) blocked, the pending parent writes
        // must be re-detected on the next round.
        let (shadow, expected) = match sync.fresh {
            Some(fresh) if !sync.synced_south => (fresh, Some(sync.candidate)),
            _ => (sync.candidate, None),
        };
        let clean = clean.then_some(Clean {
            child_rv,
            mode,
            state,
            expected,
        });
        let memo = EdgeMemo { shadow, clean };
        self.edges.insert(key, memo);
    }
}

/// The pure half of an edge sync: what the replica, the child and the
/// shadow call for, with nothing queued.
fn decide(
    mode: MountMode,
    state: EdgeState,
    replica: &Value,
    child_model: &Value,
    shadow: &Value,
) -> EdgeSync {
    // --- Northbound: build the replica candidate from the child. ---------
    // Generations are compared exactly as u64: an f64 round-trip
    // collapses adjacent versions past 2^53 and mis-orders the gate.
    let child_gen = lookup(child_model, &["meta", "gen"])
        .and_then(Value::as_exact_u64)
        .unwrap_or(0);
    let mut fields = BTreeMap::new();
    fields.insert("mode".to_string(), Value::from(mode.as_str()));
    fields.insert(
        "status".to_string(),
        Value::from(match state {
            EdgeState::Active => MOUNT_ACTIVE,
            EdgeState::Yielded => MOUNT_YIELDED,
        }),
    );
    fields.insert("gen".to_string(), Value::from_exact_u64(child_gen));
    for section in ["control", "obs", "data", "mount"] {
        if section == "mount" && mode != MountMode::Expose {
            continue;
        }
        if let Some(v) = lookup(child_model, &[section]) {
            fields.insert(section.to_string(), v.clone());
        }
    }
    let mut candidate = Value::Object(fields);
    // Three-way merge: parent writes pending since the last mounter write
    // survive the refresh. The northbound-only view is kept aside when
    // they change it: it is what the shadow reverts to when the version
    // gate blocks, so blocked writes stay pending instead of being
    // silently absorbed.
    let mut fresh = None;
    collect_southbound_leaves(replica, &mut |keys, v| {
        if v.is_null() || *v == *lookup(shadow, keys).unwrap_or(&Value::Null) {
            return;
        }
        if lookup(&candidate, keys) != Some(v) {
            fresh.get_or_insert_with(|| candidate.clone());
            let _ = candidate.set(&Path::keys(keys.iter().copied()), v.clone());
        }
    });
    let write_north = candidate != *replica;

    // --- Southbound: apply parent-pending intent/input writes. -----------
    // Version gate (§5.2): only sync when the *stored* replica is at least
    // as fresh as the child's model. A stale replica means the parent
    // acted on an outdated view of the child; the northbound refresh
    // (which advances `.gen` to the child's version) must land first, and
    // the retry happens on its event.
    let stored_gen = lookup(replica, &["gen"])
        .and_then(Value::as_exact_u64)
        .unwrap_or(0);
    let synced_south = state == EdgeState::Active && stored_gen >= child_gen;
    let mut south = None;
    if synced_south {
        collect_southbound_leaves(&candidate, &mut |keys, v| {
            if !v.is_null() && *v != *lookup(child_model, keys).unwrap_or(&Value::Null) {
                let patch = south.get_or_insert_with(dspace_value::obj);
                let _ = patch.set(&Path::keys(keys.iter().copied()), v.clone());
            }
        });
    }
    EdgeSync {
        candidate,
        fresh,
        write_north,
        south,
        synced_south,
    }
}

/// The queueing half of an edge sync: the northbound replica write on the
/// parent, then the southbound patch on the child with its trace entry
/// deferred until the op commits (matching the old per-op success gate).
fn queue_sync(
    api: &mut ApiServer,
    batch: &mut WriteBatch,
    (parent, child): &(ObjectRef, ObjectRef),
    replica_path: &str,
    north: Option<Value>,
    south: Option<Value>,
    effects: &mut Vec<TraceEffect>,
) {
    if let Some(replica) = north {
        // Errors are ignored (as before): no effect rides on this op.
        let _ = batch.patch_path(api, parent, replica_path, replica);
    }
    if let Some(patch) = south {
        let ticket = batch.patch(api, child, patch);
        effects.push(TraceEffect {
            ticket,
            subject: child.to_string(),
            detail: format!("southbound sync from {parent}"),
        });
    }
}

/// Follows object keys down from `doc`.
fn lookup<'a>(doc: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter()
        .try_fold(doc, |v, k| v.as_object().and_then(|m| m.get(*k)))
}

/// Visits every leaf under `doc` whose path is *southbound-capable*:
/// `control.<attr>.intent`, `data.input.<...>`, possibly nested below one
/// or more `mount.<Kind>.<name>` prefixes (writes through exposed
/// grandchild replicas). `visit` gets the leaf's keys from the replica
/// root, off one stack reused across the walk.
fn collect_southbound_leaves<'a>(doc: &'a Value, visit: &mut impl FnMut(&[&'a str], &'a Value)) {
    fn walk<'a>(
        v: &'a Value,
        keys: &mut Vec<&'a str>,
        visit: &mut impl FnMut(&[&'a str], &'a Value),
    ) {
        if is_southbound(keys) {
            // Leaves only: intent scalars or anything under data.input.
            match v {
                Value::Object(map) => {
                    for (k, child) in map {
                        keys.push(k);
                        walk(child, keys, visit);
                        keys.pop();
                    }
                }
                other => visit(keys, other),
            }
            return;
        }
        if let Value::Object(map) = v {
            for (k, child) in map {
                keys.push(k);
                if could_lead_southbound(keys) {
                    walk(child, keys, visit);
                }
                keys.pop();
            }
        }
    }
    walk(doc, &mut Vec::new(), visit)
}

/// Returns `true` when `keys` (relative to a replica root) address a
/// southbound-writable location.
fn is_southbound(keys: &[&str]) -> bool {
    matches!(
        strip_mount_prefixes(keys),
        ["control", _, "intent", ..] | ["data", "input", _, ..]
    )
}

/// Returns `true` if descending further below `keys` could still reach a
/// southbound location (used to prune the walk).
fn could_lead_southbound(keys: &[&str]) -> bool {
    match strip_mount_prefixes(keys) {
        [] | ["control" | "data" | "mount"] | ["control" | "mount", _] => true,
        ["control", _, i] => *i == "intent",
        ["data", i] => *i == "input",
        _ => is_southbound(keys),
    }
}

/// Strips leading `mount.<Kind>.<name>` triples.
fn strip_mount_prefixes<'k, 'a>(mut keys: &'k [&'a str]) -> &'k [&'a str] {
    while let ["mount", _, _, rest @ ..] = keys {
        keys = rest;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspace_apiserver::{Query, Role, Rule, WatchId};
    use std::cell::RefCell;

    impl Mounter {
        /// `true` if any per-edge entry names `oref` as parent or child.
        fn remembers(&self, oref: &ObjectRef) -> bool {
            self.edges.keys().any(|(p, c)| p == oref || c == oref)
        }
    }

    /// A mounter driven by hand against its own store watch.
    struct Harness {
        api: ApiServer,
        graph: RefCell<DigiGraph>,
        watch: WatchId,
        mounter: Mounter,
        trace: Trace,
    }

    impl Harness {
        fn new() -> Self {
            let mut api = ApiServer::new();
            api.rbac_mut()
                .add_role(Role::new("controller", vec![Rule::allow_all()]));
            api.rbac_mut().bind(SUBJECT, "controller");
            let watch = api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap();
            Harness {
                api,
                graph: RefCell::new(DigiGraph::new()),
                watch,
                mounter: Mounter::new(),
                trace: Trace::new(),
            }
        }

        fn digi(&mut self, kind: &str, name: &str) -> ObjectRef {
            let oref = ObjectRef::default_ns(kind, name);
            let model = dspace_value::json::parse(&format!(
                r#"{{"meta": {{"kind": "{kind}", "name": "{name}", "namespace": "default"}},
                     "control": {{"brightness": {{"intent": null, "status": null}}}},
                     "obs": {{}}}}"#
            ))
            .unwrap();
            self.api.create(ApiServer::ADMIN, &oref, model).unwrap();
            oref
        }

        /// Mounts `child` under `parent` with an empty replica for the
        /// mounter to fill.
        fn mount(&mut self, child: &ObjectRef, parent: &ObjectRef) {
            self.graph
                .borrow_mut()
                .mount(child, parent, MountMode::Expose)
                .unwrap();
            let path = crate::model::replica_path(&child.kind, &child.name);
            let stub = dspace_value::object([("status", Value::from(MOUNT_ACTIVE))]);
            self.api
                .patch_path(ApiServer::ADMIN, parent, &path, stub)
                .unwrap();
        }

        /// Runs one mounter wake over everything pending; returns how many
        /// edges it fully synced, or `None` if nothing was pending.
        fn wake(&mut self) -> Option<u64> {
            let events = self.api.poll(self.watch);
            if events.is_empty() {
                return None;
            }
            let before = self.mounter.full_syncs;
            self.mounter
                .process(&mut self.api, &self.graph, &events, &mut self.trace, 0);
            Some(self.mounter.full_syncs - before)
        }

        fn settle(&mut self) {
            for _ in 0..16 {
                if self.wake().is_none() {
                    return;
                }
            }
            panic!("mounter did not settle");
        }
    }

    /// S1 with the Hue lamp: a room over two UniLamps (each over a vendor
    /// lamp) and the Hue mounted directly. Five edges, three at the room.
    fn s1_room() -> (Harness, ObjectRef, Vec<ObjectRef>) {
        let mut h = Harness::new();
        let room = h.digi("Room", "lvroom");
        let ul1 = h.digi("UniLamp", "ul1");
        let ul2 = h.digi("UniLamp", "ul2");
        let l1 = h.digi("GeeniLamp", "l1");
        let l2 = h.digi("LifxLamp", "l2");
        let l3 = h.digi("HueLamp", "l3");
        h.mount(&l1, &ul1);
        h.mount(&l2, &ul2);
        h.mount(&ul1, &room);
        h.mount(&ul2, &room);
        h.mount(&l3, &room);
        h.settle();
        (h, room, vec![ul1, ul2, l1, l2, l3])
    }

    #[test]
    fn echo_of_a_north_write_syncs_no_edge() {
        let (mut h, room, lamps) = s1_room();
        let ul1 = &lamps[0];
        // The UniLamp reports a status: one wake syncs its edge to the room
        // (a northbound replica write) and skips its settled vendor edge.
        h.api
            .patch_path(
                ApiServer::ADMIN,
                ul1,
                ".control.brightness.status",
                Value::from(0.8),
            )
            .unwrap();
        assert_eq!(h.wake(), Some(1));
        let replica = h
            .api
            .get_path(ApiServer::ADMIN, &room, ".mount.UniLamp.ul1.control")
            .unwrap();
        assert_eq!(
            replica
                .get_path("brightness.status")
                .and_then(Value::as_f64),
            Some(0.8)
        );
        // The room's own event echoes that write back: every edge at the
        // room is clean, so the wake re-syncs none of the three.
        assert_eq!(h.wake(), Some(0));
        assert_eq!(h.wake(), None);
    }

    #[test]
    fn a_lost_southbound_write_keeps_its_edge_dirty() {
        let (mut h, room, _) = s1_room();
        // The room decides an intent for the Hue lamp...
        h.api
            .patch_path(
                ApiServer::ADMIN,
                &room,
                ".mount.HueLamp.l3.control.brightness.intent",
                Value::from(0.4),
            )
            .unwrap();
        let events = h.api.poll(h.watch);
        // ...and the deferred cycle carrying it south gives up: its batch
        // never lands, so child and replica stay as they were.
        drop(h.mounter.plan(&mut h.api, &h.graph, &events, true));
        h.api
            .patch_path(ApiServer::ADMIN, &room, ".obs.note", Value::from("x"))
            .unwrap();
        // The next wake at the room must sync that edge again (the two
        // UniLamp edges stay clean).
        assert_eq!(h.wake(), Some(1));
    }

    #[test]
    fn deleted_digis_leave_no_edge_memory() {
        let (mut h, room, lamps) = s1_room();
        let (ul1, l1) = (&lamps[0], &lamps[2]);
        assert!(h.mounter.remembers(l1) && h.mounter.remembers(&room));
        // A child goes, then a parent.
        h.api.delete(ApiServer::ADMIN, l1).unwrap();
        h.graph.borrow_mut().unmount(l1, ul1).unwrap();
        h.settle();
        assert!(!h.mounter.remembers(l1));
        h.api.delete(ApiServer::ADMIN, &room).unwrap();
        for child in [&lamps[0], &lamps[1], &lamps[4]] {
            h.graph.borrow_mut().unmount(child, &room).unwrap();
        }
        h.settle();
        assert!(!h.mounter.remembers(&room));
        assert!(!h.mounter.remembers(l1));
        // The rest of the fleet keeps its memory.
        assert!(h.mounter.remembers(&lamps[1]));
    }

    #[test]
    fn a_state_change_alone_reopens_a_clean_edge() {
        let (mut h, room, lamps) = s1_room();
        let l3 = &lamps[4];
        // Yield in the graph only: replica and child are untouched, so
        // only the recorded edge state tells the mounter to re-sync.
        h.graph.borrow_mut().yield_edge(l3, &room).unwrap();
        h.api
            .patch_path(ApiServer::ADMIN, &room, ".obs.note", Value::from("x"))
            .unwrap();
        assert_eq!(h.wake(), Some(1));
        assert_eq!(
            h.api
                .get_path(ApiServer::ADMIN, &room, ".mount.HueLamp.l3.status")
                .unwrap()
                .as_str(),
            Some(MOUNT_YIELDED)
        );
    }

    #[test]
    fn southbound_classification() {
        let yes = [
            ".control.power.intent",
            ".control.brightness.intent",
            ".data.input.url",
            ".mount.Speaker.s1.control.mode.intent",
            ".mount.Room.r1.mount.Speaker.s1.control.mode.intent",
            ".mount.Scene.sc.data.input.url",
        ];
        let keys = |p: &'static str| p[1..].split('.').collect::<Vec<_>>();
        for p in yes {
            assert!(is_southbound(&keys(p)), "{p} should be southbound");
        }
        let no = [
            ".control.power.status",
            ".obs.objects",
            ".data.output.objects",
            ".mount.Speaker.s1.control.mode.status",
            ".gen",
            ".mode",
            ".status",
        ];
        for p in no {
            assert!(!is_southbound(&keys(p)), "{p} should not be southbound");
        }
    }

    #[test]
    fn collect_southbound_finds_nested_leaves() {
        let doc = dspace_value::json::parse(
            r#"{
                "mode": "expose", "status": "active", "gen": 3,
                "control": {"power": {"intent": "on", "status": "off"}},
                "data": {"input": {"url": "rtsp://x"}, "output": {"objects": []}},
                "mount": {"Speaker": {"s1": {"control": {"mode": {"intent": "pause", "status": "play"}}}}}
            }"#,
        )
        .unwrap();
        let mut found = Vec::new();
        collect_southbound_leaves(&doc, &mut |keys, v| {
            found.push((format!(".{}", keys.join(".")), v.clone()));
        });
        found.sort_by(|a, b| a.0.cmp(&b.0));
        let paths: Vec<&str> = found.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                ".control.power.intent",
                ".data.input.url",
                ".mount.Speaker.s1.control.mode.intent",
            ]
        );
    }
}
