//! Prepared-batch parity with the serial verbs.
//!
//! With a schema and an admission webhook registered, `apply_batch`
//! takes the prepared path: it simulates each op against an overlay of
//! the batch's earlier writes, validates and admits it there, commits the
//! survivors on the shard workers and replays `observe` afterwards. This
//! suite sends random batches — creates, updates (some with stale OCC
//! guards), merges, path sets, deletes, several ops on one object,
//! schema-invalid values, bad paths and webhook-denied ops in the middle —
//! through `apply_batch` on one server and the same ops through the
//! serial verbs on a twin. Results, store dumps, the webhook's review and
//! observe sequences (old and new models included), watch streams and
//! `WatchStats` must be identical. The one counter allowed to differ is
//! `deep_clones` (which copies the store had to make depends on who still
//! holds a model): it is reported, and the batch side never pays more.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use dspace_apiserver::{
    AdmissionResponse, AdmissionReview, AdmissionWebhook, ApiError, ApiServer, BatchOp, ObjectRef,
    Query, Verb, WatchEvent, WatchId, WatchStats,
};
use dspace_value::{json, AttrType, KindSchema, Value};

const NAMESPACES: [&str; 2] = ["east", "west"];
const KINDS: [&str; 2] = ["Lamp", "Plug"];
const OBJECTS: usize = 2;
/// The webhook vetoes any candidate model carrying this brightness.
const DENIED: u32 = 13;

fn oref(kind: usize, ns: usize, obj: usize) -> ObjectRef {
    ObjectRef::new(
        KINDS[kind],
        NAMESPACES[ns],
        format!("{}{obj}", KINDS[kind].to_lowercase()),
    )
}

fn model(o: &ObjectRef, brightness: u32) -> Value {
    json::parse(&format!(
        r#"{{"meta": {{"kind": "{}", "name": "{}", "namespace": "{}"}},
            "control": {{"brightness": {{"intent": {brightness}}},
                         "power": {{"intent": "on"}}}}}}"#,
        o.kind, o.name, o.namespace,
    ))
    .unwrap()
}

/// One recorded webhook call: `(observe?, verb, oref, old, new)`.
type Call = (bool, Verb, ObjectRef, Option<Value>, Option<Value>);

/// Records every review and observe, and denies [`DENIED`] brightness.
struct Recorder(Rc<RefCell<Vec<Call>>>);

impl Recorder {
    fn record(&self, observe: bool, r: &AdmissionReview<'_>) {
        self.0.borrow_mut().push((
            observe,
            r.verb,
            r.oref.clone(),
            r.old.cloned(),
            r.new.cloned(),
        ));
    }
}

impl AdmissionWebhook for Recorder {
    fn name(&self) -> &str {
        "recorder"
    }

    fn review(&mut self, review: &AdmissionReview<'_>) -> AdmissionResponse {
        self.record(false, review);
        let denied = review
            .new
            .and_then(|m| m.get_path("control.brightness.intent"))
            .and_then(Value::as_f64)
            == Some(f64::from(DENIED));
        if denied {
            AdmissionResponse::Deny("unlucky brightness".into())
        } else {
            AdmissionResponse::Allow
        }
    }

    fn observe(&mut self, review: &AdmissionReview<'_>) {
        self.record(true, review);
    }
}

struct Twin {
    api: ApiServer,
    calls: Rc<RefCell<Vec<Call>>>,
    watches: Vec<WatchId>,
}

fn twin(threads: usize) -> Twin {
    let mut api = ApiServer::new();
    api.set_executor_threads(threads);
    // Lamps are schema-checked; plugs are not (non-strict kinds).
    api.register_schema(
        KindSchema::digivice("digi.dev", "v1", "Lamp")
            .control("brightness", AttrType::Number)
            .control("power", AttrType::String),
    );
    let calls = Rc::new(RefCell::new(Vec::new()));
    api.register_webhook(Box::new(Recorder(Rc::clone(&calls))));
    let watches = vec![
        api.watch_query(ApiServer::ADMIN, &Query::all()).unwrap(),
        api.watch_query(ApiServer::ADMIN, &Query::kind("Lamp").in_ns(NAMESPACES[0]))
            .unwrap(),
    ];
    Twin {
        api,
        calls,
        watches,
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create(usize, usize, usize, u32),
    Update(usize, usize, usize, u32, Option<u64>),
    Patch(usize, usize, usize, u32),
    PatchPath(usize, usize, usize, u32),
    /// A string brightness: schema-invalid for lamps.
    PatchPathInvalid(usize, usize, usize),
    BadPath(usize, usize, usize),
    Delete(usize, usize, usize),
}

fn brightness() -> impl Strategy<Value = u32> {
    // DENIED shows up often enough to veto ops mid-batch.
    (0u32..4, 0u32..100).prop_map(|(roll, b)| if roll == 0 { DENIED } else { b })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let t = || (0..KINDS.len(), 0..NAMESPACES.len(), 0..OBJECTS);
    // Uniform choice; path sets are listed twice to weight the hot verb.
    prop_oneof![
        (t(), brightness()).prop_map(|((k, n, o), b)| Op::Create(k, n, o, b)),
        (t(), brightness(), 0u64..6)
            .prop_map(|((k, n, o), b, rv)| { Op::Update(k, n, o, b, (rv > 0).then_some(rv)) }),
        (t(), brightness()).prop_map(|((k, n, o), b)| Op::Patch(k, n, o, b)),
        (t(), brightness()).prop_map(|((k, n, o), b)| Op::PatchPath(k, n, o, b)),
        (t(), brightness()).prop_map(|((k, n, o), b)| Op::PatchPath(k, n, o, b)),
        t().prop_map(|(k, n, o)| Op::PatchPathInvalid(k, n, o)),
        t().prop_map(|(k, n, o)| Op::BadPath(k, n, o)),
        t().prop_map(|(k, n, o)| Op::Delete(k, n, o)),
    ]
}

fn batch_op(op: &Op) -> BatchOp {
    let path_set = |o: ObjectRef, path: &str, value: Value| BatchOp::PatchPath {
        oref: o,
        path: path.to_string(),
        value,
    };
    match *op {
        Op::Create(k, n, i, b) => {
            let o = oref(k, n, i);
            BatchOp::Create {
                model: model(&o, b),
                oref: o,
            }
        }
        Op::Update(k, n, i, b, expected_rv) => {
            let o = oref(k, n, i);
            BatchOp::Update {
                model: model(&o, b),
                oref: o,
                expected_rv,
            }
        }
        Op::Patch(k, n, i, b) => BatchOp::Patch {
            oref: oref(k, n, i),
            patch: json::parse(&format!(
                r#"{{"control": {{"brightness": {{"intent": {b}}}}}}}"#
            ))
            .unwrap(),
        },
        Op::PatchPath(k, n, i, b) => path_set(
            oref(k, n, i),
            ".control.brightness.intent",
            Value::from(f64::from(b)),
        ),
        Op::PatchPathInvalid(k, n, i) => path_set(
            oref(k, n, i),
            ".control.brightness.intent",
            Value::from("dim"),
        ),
        Op::BadPath(k, n, i) => path_set(oref(k, n, i), ".control..intent", Value::from(1.0)),
        Op::Delete(k, n, i) => BatchOp::Delete {
            oref: oref(k, n, i),
        },
    }
}

/// Runs one op through the serial verb it mirrors.
fn serial(api: &mut ApiServer, op: BatchOp) -> Result<u64, ApiError> {
    let admin = ApiServer::ADMIN;
    match op {
        BatchOp::Create { oref, model } => api.create(admin, &oref, model),
        BatchOp::Update {
            oref,
            model,
            expected_rv,
        } => api.update(admin, &oref, model, expected_rv),
        BatchOp::Patch { oref, patch } => api.patch(admin, &oref, patch),
        BatchOp::PatchPath { oref, path, value } => api.patch_path(admin, &oref, &path, value),
        BatchOp::Delete { oref } => api.delete(admin, &oref).map(|o| o.resource_version),
    }
}

fn polls(t: &mut Twin) -> Vec<Vec<WatchEvent>> {
    t.watches.iter().map(|&w| t.api.poll(w)).collect()
}

fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Replays `batches` on both twins, asserting parity after each batch.
/// Returns the final stats of the batch and serial sides.
fn run(batches: &[Vec<Op>], threads: usize) -> Result<(WatchStats, WatchStats), TestCaseError> {
    let mut batched = twin(threads);
    let mut serial_twin = twin(threads);
    let mut shard_slices = 0u64;
    for batch in batches {
        let ops: Vec<BatchOp> = batch.iter().map(batch_op).collect();
        let mut namespaces: Vec<String> = ops.iter().map(|o| o.oref().namespace.clone()).collect();
        namespaces.sort_unstable();
        namespaces.dedup();
        shard_slices += namespaces.len() as u64;
        let got = batched.api.apply_batch(ApiServer::ADMIN, ops.clone());
        let want: Vec<Result<u64, ApiError>> = ops
            .into_iter()
            .map(|op| serial(&mut serial_twin.api, op))
            .collect();
        prop_assert_eq!(&got, &want, "results of batch {:?}", batch);
        prop_assert_eq!(batched.api.dump(), serial_twin.api.dump(), "store dumps");
        // The batch reviews every op before the commit and observes after
        // it, so the two call kinds interleave differently; each sequence
        // on its own must match.
        for observe in [false, true] {
            let calls = |t: &Twin| -> Vec<Call> {
                t.calls
                    .borrow()
                    .iter()
                    .filter(|c| c.0 == observe)
                    .cloned()
                    .collect()
            };
            prop_assert_eq!(
                calls(&batched),
                calls(&serial_twin),
                "webhook {} sequence",
                if observe { "observe" } else { "review" }
            );
        }
        prop_assert_eq!(
            polls(&mut batched),
            polls(&mut serial_twin),
            "watch streams"
        );
        if let Err(e) = batched.api.audit_sizes() {
            return Err(TestCaseError::fail(e));
        }
    }
    let (b, s) = (batched.api.watch_stats(), serial_twin.api.watch_stats());
    // Surviving ops reach the store grouped by shard: at most one
    // compaction pass per shard slice, where the serial verbs compact at
    // poll time instead.
    prop_assert!(
        b.batch_compaction_passes <= shard_slices,
        "at most one compaction pass per shard slice"
    );
    prop_assert_eq!(s.batch_compaction_passes, 0);
    let normalized = |w: WatchStats| WatchStats {
        deep_clones: 0,
        batch_compaction_passes: 0,
        ..w
    };
    prop_assert_eq!(normalized(b), normalized(s), "watch stats");
    prop_assert!(
        b.deep_clones <= s.deep_clones,
        "batch deep clones {} exceed the serial verbs' {}",
        b.deep_clones,
        s.deep_clones
    );
    Ok((b, s))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `apply_batch` through the prepared path is observably identical to
    /// the serial verbs, at shard worker caps 1 and max.
    #[test]
    fn prepared_batches_match_serial_verbs(
        batches in prop::collection::vec(prop::collection::vec(arb_op(), 1..9), 1..25)
    ) {
        for threads in [1usize, max_threads()] {
            let (b, s) = run(&batches, threads)?;
            eprintln!(
                "deep_clones at cap {threads}: apply_batch {} vs serial verbs {}",
                b.deep_clones, s.deep_clones
            );
        }
    }
}
