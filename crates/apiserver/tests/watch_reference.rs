//! Watch delivery against a brute-force reference.
//!
//! The store answers `poll`, `poll_coalesced`, `pending_totals` and
//! `has_pending` from per-shard selector lists, charge cells and the
//! shards routed to each watcher since its last poll. This suite checks
//! all four against a model that knows none of that: it keeps every
//! committed event with a global sequence number, every watcher's full
//! selector list with the sequence number each selector was attached at,
//! and the point each watcher last polled. An event is owed to a watcher
//! iff it came after that poll and some selector attached before it
//! matches it.
//!
//! Watchers hold hundreds of kind-in-namespace, object and predicate
//! selectors (duplicates included) across many namespaces, widen and
//! narrow mid-stream, and see namespaces deleted and re-created — at
//! shard worker caps 1 and max. After every step the four answers must
//! equal the reference's and `audit_sizes` must pass.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dspace_apiserver::store::{stamp_gen, Store};
use dspace_apiserver::{
    CoalescedEvent, ObjectRef, Query, StoreOp, WatchEvent, WatchEventKind, WatchId,
};
use dspace_value::{json, Path, Shared, Value};

const NAMESPACES: usize = 16;
const KINDS: [&str; 2] = ["Lamp", "Plug"];
const OBJECTS: usize = 3;
const WATCHERS: usize = 3;
const BRIGHTNESS: &str = ".control.brightness.intent";
const PREDICATES: [&str; 2] = [
    ".control.brightness.intent > 50",
    ".control.brightness.intent <= 20",
];

fn ns(n: usize) -> String {
    format!("home{n}")
}

fn oref(kind: usize, n: usize, obj: usize) -> ObjectRef {
    ObjectRef::new(
        KINDS[kind],
        ns(n),
        format!("{}{obj}", KINDS[kind].to_lowercase()),
    )
}

fn model(kind: usize, n: usize, obj: usize, brightness: u32) -> Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "{}", "name": "{}{obj}", "namespace": "{}"}},
            "control": {{"brightness": {{"intent": {brightness}}}}}}}"#,
        KINDS[kind],
        KINDS[kind].to_lowercase(),
        ns(n),
    ))
    .unwrap()
}

/// The subscription shapes a watcher can hold, by index.
fn query(shape: usize) -> Query {
    let per_ns = KINDS.len() * (1 + OBJECTS + PREDICATES.len());
    let homed = NAMESPACES * per_ns;
    if shape >= homed {
        return match shape - homed {
            0 => Query::all(),
            k => Query::kind(KINDS[(k - 1) % KINDS.len()]),
        };
    }
    let n = shape / per_ns;
    let rest = shape % per_ns;
    let kind = rest % KINDS.len();
    let q = Query::kind(KINDS[kind]).in_ns(ns(n));
    match rest / KINDS.len() {
        0 => q,
        i if i <= OBJECTS => q.named(format!("{}{}", KINDS[kind].to_lowercase(), i - 1)),
        i => q.filter(PREDICATES[i - 1 - OBJECTS]).unwrap(),
    }
}

/// Number of namespace-homed shapes; shapes past it are global.
fn homed_shapes() -> usize {
    NAMESPACES * KINDS.len() * (1 + OBJECTS + PREDICATES.len())
}

#[derive(Debug, Clone)]
enum Mutation {
    Create {
        kind: usize,
        n: usize,
        obj: usize,
        brightness: u32,
    },
    Put {
        kind: usize,
        n: usize,
        obj: usize,
        brightness: u32,
    },
    Merge {
        kind: usize,
        n: usize,
        obj: usize,
        brightness: u32,
    },
    Set {
        kind: usize,
        n: usize,
        obj: usize,
        brightness: u32,
    },
    Delete {
        kind: usize,
        n: usize,
        obj: usize,
    },
}

#[derive(Debug, Clone)]
enum Step {
    /// One `apply_batch` call: ops may span namespaces and hit one object
    /// several times; failing ops (create of a live object, writes to a
    /// missing one) commit nothing.
    Batch(Vec<Mutation>),
    Extend(usize, usize),
    Narrow(usize, usize),
    Poll(usize),
    PollCoalesced(usize),
    DeleteNamespace(usize),
    DrainDirty,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let target = || (0..KINDS.len(), 0..NAMESPACES, 0..OBJECTS);
    // `prop_oneof!` picks uniformly; listing path sets twice makes the hot
    // verb twice as likely.
    prop_oneof![
        (target(), 0u32..100).prop_map(|((kind, n, obj), brightness)| Mutation::Create {
            kind,
            n,
            obj,
            brightness
        }),
        (target(), 0u32..100).prop_map(|((kind, n, obj), brightness)| Mutation::Put {
            kind,
            n,
            obj,
            brightness
        }),
        (target(), 0u32..100).prop_map(|((kind, n, obj), brightness)| Mutation::Merge {
            kind,
            n,
            obj,
            brightness
        }),
        (target(), 0u32..100).prop_map(|((kind, n, obj), brightness)| Mutation::Set {
            kind,
            n,
            obj,
            brightness
        }),
        (target(), 0u32..100).prop_map(|((kind, n, obj), brightness)| Mutation::Set {
            kind,
            n,
            obj,
            brightness
        }),
        target().prop_map(|(kind, n, obj)| Mutation::Delete { kind, n, obj }),
    ]
}

/// Homed shapes mostly; a global `Kind`/`All` now and then.
fn arb_shape() -> impl Strategy<Value = usize> {
    (0usize..40, 0..homed_shapes(), 0usize..3).prop_map(|(roll, homed, global)| {
        if roll == 0 {
            homed_shapes() + global
        } else {
            homed
        }
    })
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Batches are listed three times to weight them (uniform choice).
    prop_oneof![
        prop::collection::vec(arb_mutation(), 1..6).prop_map(Step::Batch),
        prop::collection::vec(arb_mutation(), 1..6).prop_map(Step::Batch),
        prop::collection::vec(arb_mutation(), 1..6).prop_map(Step::Batch),
        (0..WATCHERS, arb_shape()).prop_map(|(w, s)| Step::Extend(w, s)),
        (0..WATCHERS, arb_shape()).prop_map(|(w, s)| Step::Narrow(w, s)),
        (0..WATCHERS).prop_map(Step::Poll),
        (0..WATCHERS).prop_map(Step::PollCoalesced),
        (0..NAMESPACES).prop_map(Step::DeleteNamespace),
        Just(Step::DrainDirty),
    ]
}

#[derive(Debug, Clone)]
struct Script {
    /// Initial selector shapes per watcher (hundreds, duplicates allowed).
    initial: Vec<Vec<usize>>,
    steps: Vec<Step>,
}

fn arb_script() -> impl Strategy<Value = Script> {
    (
        prop::collection::vec(
            prop::collection::vec(0..homed_shapes(), 20..300),
            WATCHERS..WATCHERS + 1,
        ),
        prop::collection::vec(arb_step(), 20..120),
    )
        .prop_map(|(initial, steps)| Script { initial, steps })
}

/// One committed event as the reference sees it.
#[derive(Debug, Clone)]
struct RefEvent {
    seq: u64,
    event: WatchEvent,
}

/// The brute-force model of every watcher's subscription.
#[derive(Default)]
struct Reference {
    /// Global commit sequence (the last number handed out).
    seq: u64,
    events: Vec<RefEvent>,
    /// Per watcher: `(query, seq it was attached after)`, attach order.
    selectors: Vec<Vec<(Query, u64)>>,
    /// Per watcher: the sequence number of its last poll.
    polled: Vec<u64>,
    /// Mirror of every live object: `(model, resource version)`.
    objects: BTreeMap<ObjectRef, (Value, u64)>,
}

impl Reference {
    fn commit(
        &mut self,
        revision: u64,
        kind: WatchEventKind,
        oref: &ObjectRef,
        model: Value,
        rv: u64,
    ) {
        self.seq += 1;
        self.events.push(RefEvent {
            seq: self.seq,
            event: WatchEvent {
                revision,
                kind,
                oref: oref.clone(),
                model: Shared::new(model),
                resource_version: rv,
            },
        });
    }

    /// Events owed to watcher `w`, in delivery order: namespace, then
    /// commit order.
    fn owed(&self, w: usize) -> Vec<&WatchEvent> {
        let mut out: Vec<&RefEvent> = self
            .events
            .iter()
            .filter(|e| e.seq > self.polled[w])
            .filter(|e| {
                self.selectors[w]
                    .iter()
                    .any(|(q, at)| *at < e.seq && q.matches(&e.event.oref, &e.event.model))
            })
            .collect();
        out.sort_by(|a, b| (&a.event.oref.namespace, a.seq).cmp(&(&b.event.oref.namespace, b.seq)));
        out.into_iter().map(|e| &e.event).collect()
    }

    fn totals(&self, w: usize) -> (u64, u64) {
        let owed = self.owed(w);
        let bytes = owed
            .iter()
            .map(|e| json::encoded_len(&e.model) as u64)
            .sum();
        (owed.len() as u64, bytes)
    }

    fn coalesced(&self, w: usize) -> Vec<CoalescedEvent> {
        let mut out: Vec<CoalescedEvent> = Vec::new();
        let mut at: BTreeMap<&ObjectRef, usize> = BTreeMap::new();
        for e in self.owed(w) {
            match at.get(&e.oref) {
                Some(&i) => {
                    out[i].event = e.clone();
                    out[i].coalesced += 1;
                }
                None => {
                    at.insert(&e.oref, out.len());
                    out.push(CoalescedEvent {
                        event: e.clone(),
                        coalesced: 1,
                    });
                }
            }
        }
        out
    }

    fn mark_polled(&mut self, w: usize) {
        self.polled[w] = self.seq;
        let floor = self.polled.iter().copied().min().unwrap_or(0);
        self.events.retain(|e| e.seq > floor);
    }

    /// Predicts one op's outcome: its store op and, when it commits, the
    /// event kind plus the model and version it leaves behind.
    fn predict(&self, m: &Mutation) -> (StoreOp, Option<(WatchEventKind, ObjectRef, Value, u64)>) {
        let brightness_path: Path = BRIGHTNESS.parse().unwrap();
        match *m {
            Mutation::Create {
                kind,
                n,
                obj,
                brightness,
            } => {
                let o = oref(kind, n, obj);
                let fresh = model(kind, n, obj, brightness);
                let outcome = (!self.objects.contains_key(&o)).then(|| {
                    let mut stamped = fresh.clone();
                    stamp_gen(&mut stamped, 1);
                    (WatchEventKind::Added, o.clone(), stamped, 1)
                });
                (
                    StoreOp::Create {
                        oref: o,
                        model: fresh,
                    },
                    outcome,
                )
            }
            Mutation::Put {
                kind,
                n,
                obj,
                brightness,
            } => {
                let o = oref(kind, n, obj);
                let fresh = model(kind, n, obj, brightness);
                let outcome = self.objects.get(&o).map(|(_, rv)| {
                    let mut stamped = fresh.clone();
                    stamp_gen(&mut stamped, rv + 1);
                    (WatchEventKind::Modified, o.clone(), stamped, rv + 1)
                });
                (
                    StoreOp::Put {
                        oref: o,
                        model: fresh,
                        expected_rv: None,
                    },
                    outcome,
                )
            }
            Mutation::Merge {
                kind,
                n,
                obj,
                brightness,
            } => {
                let o = oref(kind, n, obj);
                let patch = json::parse(&format!(
                    r#"{{"control": {{"brightness": {{"intent": {brightness}}}}}}}"#
                ))
                .unwrap();
                let outcome = self.objects.get(&o).map(|(current, rv)| {
                    let mut next = current.clone();
                    next.merge(&patch);
                    stamp_gen(&mut next, rv + 1);
                    (WatchEventKind::Modified, o.clone(), next, rv + 1)
                });
                (StoreOp::Merge { oref: o, patch }, outcome)
            }
            Mutation::Set {
                kind,
                n,
                obj,
                brightness,
            } => {
                let o = oref(kind, n, obj);
                let value = Value::from(f64::from(brightness));
                let outcome = self.objects.get(&o).map(|(current, rv)| {
                    let mut next = current.clone();
                    next.set(&brightness_path, value.clone()).unwrap();
                    stamp_gen(&mut next, rv + 1);
                    (WatchEventKind::Modified, o.clone(), next, rv + 1)
                });
                (
                    StoreOp::SetPath {
                        oref: o,
                        path: brightness_path,
                        value,
                    },
                    outcome,
                )
            }
            Mutation::Delete { kind, n, obj } => {
                let o = oref(kind, n, obj);
                let outcome = self.objects.get(&o).map(|(current, rv)| {
                    let mut last = current.clone();
                    stamp_gen(&mut last, rv + 1);
                    (WatchEventKind::Deleted, o.clone(), last, rv + 1)
                });
                (StoreOp::Delete { oref: o }, outcome)
            }
        }
    }

    /// Records a committed op's event and updates the object mirror.
    fn apply(&mut self, revision: u64, kind: WatchEventKind, o: &ObjectRef, model: Value, rv: u64) {
        if kind == WatchEventKind::Deleted {
            self.objects.remove(o);
        } else {
            self.objects.insert(o.clone(), (model.clone(), rv));
        }
        self.commit(revision, kind, o, model, rv);
    }
}

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// After-step check: the store's pending answers equal the reference's
/// for every watcher, and the size/pending bookkeeping audits clean.
fn check(store: &Store, reference: &Reference, ids: &[WatchId]) -> Result<(), TestCaseError> {
    for (w, &id) in ids.iter().enumerate() {
        let want = reference.totals(w);
        prop_assert_eq!(
            store.pending_totals(id),
            want,
            "pending_totals of watcher {}",
            w
        );
        prop_assert_eq!(
            store.pending_bytes(id),
            want.1,
            "pending_bytes of watcher {}",
            w
        );
        prop_assert_eq!(
            store.has_pending(id),
            want.0 > 0,
            "has_pending of watcher {}",
            w
        );
    }
    if let Err(e) = store.audit_sizes() {
        return Err(TestCaseError::fail(e));
    }
    Ok(())
}

fn run(script: &Script, threads: usize) -> Result<(), TestCaseError> {
    let mut store = Store::new();
    store.set_executor_threads(threads);
    store.set_verify_sizes(true);
    let mut reference = Reference {
        polled: vec![0; WATCHERS],
        ..Reference::default()
    };
    let mut ids = Vec::new();
    let mut woken = [false; WATCHERS];
    for shapes in &script.initial {
        let queries: Vec<Query> = shapes.iter().map(|&s| query(s)).collect();
        ids.push(store.watch_queries(&queries).unwrap());
        reference
            .selectors
            .push(queries.into_iter().map(|q| (q, 0)).collect());
    }
    // Populate every namespace so writes have targets from the start.
    let mut populate = Vec::new();
    for n in 0..NAMESPACES {
        for kind in 0..KINDS.len() {
            for obj in 0..OBJECTS {
                populate.push(Mutation::Create {
                    kind,
                    n,
                    obj,
                    brightness: (obj as u32) * 40,
                });
            }
        }
    }
    for step in std::iter::once(Step::Batch(populate)).chain(script.steps.iter().cloned()) {
        let step = &step;
        match step {
            Step::Batch(mutations) => {
                let mut ops = Vec::new();
                let mut predicted = Vec::new();
                // Predict sequentially: later ops see earlier ones.
                let mut scratch = Reference {
                    objects: reference.objects.clone(),
                    ..Reference::default()
                };
                for m in mutations {
                    let (op, outcome) = scratch.predict(m);
                    if let Some((kind, o, model, rv)) = &outcome {
                        scratch.apply(0, *kind, o, model.clone(), *rv);
                    }
                    ops.push(op);
                    predicted.push(outcome);
                }
                let base: BTreeMap<String, u64> = (0..NAMESPACES)
                    .map(|n| (ns(n), store.shard_revision(&ns(n))))
                    .collect();
                let results = store.apply_batch(ops);
                // Per-shard revisions follow op order within a namespace.
                let mut next = base;
                for (result, outcome) in results.iter().zip(predicted) {
                    prop_assert_eq!(
                        result.is_ok(),
                        outcome.is_some(),
                        "op outcome: {:?}",
                        result
                    );
                    if let Some((kind, o, model, rv)) = outcome {
                        prop_assert_eq!(result.as_ref().ok(), Some(&rv));
                        let rev = next.get_mut(&o.namespace).unwrap();
                        *rev += 1;
                        reference.apply(*rev, kind, &o, model, rv);
                    }
                }
                for (o, (model, rv)) in &reference.objects {
                    let obj = store.get(o).expect("mirrored object is live");
                    prop_assert_eq!(&*obj.model, model, "mirror of {}", o);
                    prop_assert_eq!(obj.resource_version, *rv);
                }
            }
            Step::Extend(w, shape) => {
                let q = query(*shape);
                prop_assert!(store.extend_watch(ids[*w], &q).unwrap());
                reference.selectors[*w].push((q, reference.seq));
            }
            Step::Narrow(w, shape) => {
                let q = query(*shape);
                let sel = q.to_selector().unwrap();
                let held = reference.selectors[*w]
                    .iter()
                    .rposition(|(h, _)| h.to_selector().unwrap() == sel);
                prop_assert_eq!(store.narrow_watch(ids[*w], &q).unwrap(), held.is_some());
                if let Some(pos) = held {
                    reference.selectors[*w].remove(pos);
                }
            }
            Step::Poll(w) => {
                woken[*w] = false;
                let got = store.poll(ids[*w]);
                let want: Vec<WatchEvent> = reference.owed(*w).into_iter().cloned().collect();
                prop_assert_eq!(got, want, "poll of watcher {}", w);
                reference.mark_polled(*w);
            }
            Step::PollCoalesced(w) => {
                woken[*w] = false;
                let got = store.poll_coalesced(ids[*w]);
                prop_assert_eq!(
                    got,
                    reference.coalesced(*w),
                    "poll_coalesced of watcher {}",
                    w
                );
                reference.mark_polled(*w);
            }
            Step::DeleteNamespace(n) => {
                let name = ns(*n);
                // Selectors homed in the namespace are cancelled first; the
                // objects' terminal events then reach global selectors only.
                for sels in &mut reference.selectors {
                    sels.retain(|(q, _)| q.namespace.as_deref() != Some(name.as_str()));
                }
                let doomed: Vec<(ObjectRef, Value, u64)> = reference
                    .objects
                    .iter()
                    .filter(|(o, _)| o.namespace == name)
                    .map(|(o, (m, rv))| (o.clone(), m.clone(), *rv))
                    .collect();
                let mut rev = store.shard_revision(&name);
                prop_assert_eq!(store.delete_namespace(&name), doomed.len() as u64);
                for (o, mut last, rv) in doomed {
                    stamp_gen(&mut last, rv + 1);
                    rev += 1;
                    reference.apply(rev, WatchEventKind::Deleted, &o, last, rv + 1);
                }
            }
            Step::DrainDirty => {
                // The woken feed is complete: every watcher owed events
                // was handed out by this drain or one since its last poll.
                for id in store.drain_dirty_watchers() {
                    woken[ids.iter().position(|&i| i == id).unwrap()] = true;
                }
                for (w, &seen) in woken.iter().enumerate() {
                    prop_assert!(
                        seen || reference.totals(w).0 == 0,
                        "watcher {} has events pending but was never woken",
                        w
                    );
                }
            }
        }
        check(&store, &reference, &ids)?;
    }
    // Final drain: every stream is owed exactly the reference's remainder.
    for (w, &id) in ids.iter().enumerate() {
        let want: Vec<WatchEvent> = reference.owed(w).into_iter().cloned().collect();
        prop_assert_eq!(store.poll(id), want, "final poll of watcher {}", w);
        reference.mark_polled(w);
    }
    check(&store, &reference, &ids)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delivery and pending answers equal the brute-force reference after
    /// every step of a churn script with widening, narrowing and
    /// namespace deletion, at shard worker caps 1 and max.
    #[test]
    fn watch_delivery_matches_brute_force_reference(script in arb_script()) {
        for threads in [1usize, max_threads()] {
            run(&script, threads)?;
        }
    }
}

/// A watcher that mixes plain and predicate selectors in one namespace
/// coalesces through the materializing path and still agrees with the
/// plain path on the objects both cover.
#[test]
fn coalesced_poll_mixes_plain_and_predicate_selectors() {
    let mut store = Store::new();
    let plain = store
        .watch_queries(&[Query::kind("Lamp").in_ns(ns(0))])
        .unwrap();
    let mixed = store
        .watch_queries(&[
            Query::kind("Lamp").in_ns(ns(0)),
            Query::kind("Plug")
                .in_ns(ns(0))
                .filter(PREDICATES[0])
                .unwrap(),
        ])
        .unwrap();
    let lamp = oref(0, 0, 0);
    let plug = oref(1, 0, 0);
    store.create(lamp.clone(), model(0, 0, 0, 10)).unwrap();
    store.create(plug.clone(), model(1, 0, 0, 90)).unwrap();
    let path: Path = BRIGHTNESS.parse().unwrap();
    for b in [20.0, 30.0, 40.0] {
        store.update_via_set(&lamp, &path, &Value::from(b)).unwrap();
    }
    store
        .update_via_set(&plug, &path, &Value::from(10.0))
        .unwrap();
    let got_plain = store.poll_coalesced(plain);
    let got_mixed = store.poll_coalesced(mixed);
    assert_eq!(got_plain.len(), 1);
    assert_eq!(got_plain[0].coalesced, 4);
    assert_eq!(got_mixed[0], got_plain[0], "the lamp coalesces identically");
    // Only the plug's creation (brightness 90) passed the predicate.
    assert_eq!(got_mixed.len(), 2);
    assert_eq!(got_mixed[1].event.oref, plug);
    assert_eq!(got_mixed[1].coalesced, 1);
    assert_eq!(got_mixed[1].event.resource_version, 1);
}
