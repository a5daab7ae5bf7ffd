//! One pass of a workload: drive the fleet through its schedule, time the
//! benchmark's own calls into each layer, and check every output.
//!
//! The loop is open in virtual time: before each action the simulator runs
//! every event due up to the action's instant, then the action is injected
//! at exactly that instant, so the generator is never late. The simulator
//! itself runs as fast as the host allows; host time is read around the
//! benchmark's calls only.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dspace_apiserver::{Object, Query, WatchStats};
use dspace_core::trace::TraceKind;
use dspace_core::Space;
use dspace_digis::lamps::to_vendor_brightness;
use dspace_simnet::{Metrics, Time};
use dspace_value::{object, Value};

use crate::alloc;
use crate::fleet::{self, Home, Spec, INITIAL_BRIGHTNESS};
use crate::schedule::{Action, Schedule, INTENT_HOLD, QUERY_SHAPES, QUERY_SLOTS};
use crate::speed::Reference;
use crate::stats::{median, quantile, ratio};

/// Room status within this of the intended value counts as fulfilled:
/// vendor quantisation plus the room's 0.001 rounding of its mean.
const TOLERANCE: f64 = 0.002;
/// Every this many steps the traced pass probes graph freeze and snapshot
/// view cost on the live state.
const PROBE_EVERY: u64 = 64;
/// Outside the timed window, every this many queries is checked against
/// a brute-force filter over the store dump.
const CHECK_QUERY_EVERY: usize = 4;

/// The fleet a pass runs on.
pub struct Fleet {
    /// The space.
    pub space: Space,
    /// Homes by index; `None` once a home has left.
    pub homes: Vec<Option<Home>>,
    /// Journal directory of a durable fleet.
    pub journal: Option<PathBuf>,
}

/// Builds and settles a workload's fleet.
pub fn build_fleet(spec: &Spec, seed: u64, journal: Option<PathBuf>) -> Fleet {
    let mut space = fleet::new_space(spec, seed, journal.clone());
    // Set-up is timed as a whole; its verb calls are not sampled.
    let mut verb_us = Vec::new();
    let homes = (0..spec.homes)
        .map(|id| {
            Some(
                fleet::build_home(&mut space, spec, id, &mut verb_us)
                    .expect("template home builds"),
            )
        })
        .collect();
    fleet::settle(&mut space);
    Fleet {
        space,
        homes,
        journal,
    }
}

/// One span of the traced pass: a benchmark call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary crossed (`step`, `set_intent`, `query`, ...).
    pub name: &'static str,
    /// Host ns since the pass started.
    pub start_ns: u64,
    /// Host ns since the pass started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Intent id the span serves, if any.
    pub intent: Option<usize>,
}

#[derive(Debug, Clone)]
struct IntentRec {
    value: f64,
    due: Time,
    due_host: Instant,
    /// Reference-probe time paused so far when the intent was due.
    paused_at_due: Duration,
    measured: bool,
    slice: usize,
    committed: bool,
    done: Option<(Time, f64)>,
    failed: bool,
}

/// Counter readings at one instant, for window deltas.
#[derive(Debug, Clone, Default)]
struct Snap {
    host: Option<Instant>,
    executed: u64,
    revision: u64,
    counters: BTreeMap<String, u64>,
    samples: BTreeMap<String, usize>,
    watch: WatchStats,
    snapshot_reads: u64,
    direct_reads: u64,
    allocs: (u64, u64),
    written: u64,
}

impl Snap {
    fn take(space: &Space) -> Snap {
        let m = &space.world.metrics;
        Snap {
            host: Some(Instant::now()),
            executed: space.sim.executed(),
            revision: space.world.api.revision(),
            counters: m.counters().map(|(k, v)| (k.to_string(), v)).collect(),
            samples: m
                .histograms()
                .map(|(k, h)| (k.to_string(), h.count()))
                .collect(),
            watch: space.world.api.watch_stats(),
            snapshot_reads: space.world.api.snapshot_reads(),
            direct_reads: space.world.api.direct_reads(),
            allocs: alloc::snapshot(),
            written: bytes_written(),
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Measured intents attempted / completed in time.
    pub attempted: u64,
    /// Measured intents that failed (missed the deadline or never
    /// converged).
    pub failed: u64,
    /// Host seconds of the timed window, reference probes excluded.
    pub window_host_s: f64,
    /// The host's slowness during each slice: the mean of the reference
    /// probes at its two ends (see [`Reference`]).
    pub slice_slowness: Vec<f64>,
    /// The median of `slice_slowness`.
    pub slowness: f64,
    /// Host seconds of each equal virtual slice of the window.
    pub slice_host_s: Vec<f64>,
    /// Per completed measured intent: (window slice it was due in, host ms
    /// from due to completion).
    pub intent_host_ms: Vec<(usize, f64)>,
    /// Per completed measured intent: virtual ms from due to completion.
    pub intent_ttf_ms: Vec<f64>,
    /// (slice, host µs) of each in-window query.
    pub query_us: Vec<(usize, f64)>,
    /// (slice, host ms) of each in-window admin action (join, leave, yield,
    /// unyield).
    pub churn_ms: Vec<(usize, f64)>,
    /// Correctness problems found; empty when every check passed.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
    /// Values that must repeat exactly for one seed.
    pub exact: BTreeMap<&'static str, String>,
}

struct Runner<'a> {
    spec: &'a Spec,
    reference: &'a mut Reference,
    /// Host time spent in reference probes; excluded from every timing.
    paused: Duration,
    /// Allocations made by reference probes; excluded from the counts.
    probe_allocs: (u64, u64),
    window_probe_allocs: (u64, u64),
    /// Index of the first reference sample of the window.
    probe_from: usize,
    fleet: Fleet,
    traced: bool,
    origin: Instant,
    queries: Vec<Vec<Query>>,
    room_index: BTreeMap<String, usize>,
    intents: Vec<IntentRec>,
    pending: Vec<Option<usize>>,
    /// Per home: the room brightness the last intent set, or `None` once
    /// an activity flip handed the lamps to the power controller (the room
    /// then pins them at the saving level until the next intent).
    expect: Vec<Option<f64>>,
    cursor: usize,
    in_window: bool,
    queries_run: usize,
    steps: u64,
    out: PassResult,
    // Traced-only instruments.
    window_span: Option<usize>,
    step_us: Vec<f64>,
    freeze_us: Vec<f64>,
    view_us: Vec<f64>,
    indexed_us: Vec<f64>,
    scan_us: Vec<f64>,
    rows: Vec<f64>,
    verb_us: Vec<f64>,
    join_ms: Vec<f64>,
    leave_ms: Vec<f64>,
    policy_fired: u64,
    compositions: u64,
    /// Host instants each window slice starts and ends at.
    marks: Vec<Instant>,
    ends: Vec<Instant>,
    /// Index of the window slice the clock is in.
    slice: usize,
    /// Virtual instant of the last admin action recorded.
    last_churn_at: Option<Time>,
}

/// Bytes this process has passed to `write` calls so far (`wchar` of
/// `/proc/self/io`). Nothing but the journal writes during a window, so
/// its delta over the window is the bytes journalled.
fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.duration_since(origin).as_nanos() as u64
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl<'a> Runner<'a> {
    fn span(&mut self, name: &'static str, start: Instant, end: Instant, intent: Option<usize>) {
        if self.traced {
            self.out.spans.push(Span {
                name,
                start_ns: ns_since(self.origin, start),
                end_ns: ns_since(self.origin, end),
                parent: self.window_span,
                intent,
            });
        }
    }

    fn space(&mut self) -> &mut Space {
        &mut self.fleet.space
    }

    fn home(&self, h: usize) -> &Home {
        self.fleet.homes[h]
            .as_ref()
            .expect("scheduled actions target live homes")
    }

    fn step(&mut self) {
        let t0 = Instant::now();
        self.fleet.space.step();
        self.steps += 1;
        if self.traced {
            let t1 = Instant::now();
            if self.in_window {
                self.step_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
            }
            self.span("step", t0, t1, None);
            if self.in_window && self.steps.is_multiple_of(PROBE_EVERY) {
                self.probe();
            }
        }
        self.scan();
    }

    /// Times `DigiGraph::frozen` and `ApiServer::snapshot_view` on the live
    /// state, the per-wake costs that grow with the fleet.
    fn probe(&mut self) {
        let t0 = Instant::now();
        let frozen = self.fleet.space.world.graph.borrow().frozen();
        let t1 = Instant::now();
        drop(std::hint::black_box(frozen));
        let t2 = Instant::now();
        let view = self.fleet.space.world.api.snapshot_view();
        let t3 = Instant::now();
        drop(std::hint::black_box(view));
        self.freeze_us
            .push(t1.duration_since(t0).as_secs_f64() * 1e6);
        self.view_us.push(t3.duration_since(t2).as_secs_f64() * 1e6);
        self.span("probe.freeze", t0, t1, None);
        self.span("probe.snapshot_view", t2, t3, None);
    }

    /// Follows the runtime trace: an intent commits, then completes when
    /// the user CLI observes its room with the brightness status on target.
    fn scan(&mut self) {
        let entries = self.fleet.space.world.trace.entries();
        if entries.len() == self.cursor {
            return;
        }
        let mut observed = Vec::new();
        for e in &entries[self.cursor..] {
            match e.kind {
                TraceKind::Commit | TraceKind::UserObserved => {
                    let Some(&h) = self.room_index.get(&e.subject) else {
                        continue;
                    };
                    let Some(i) = self.pending[h] else {
                        continue;
                    };
                    if e.kind == TraceKind::Commit {
                        self.intents[i].committed = true;
                    } else if self.intents[i].committed {
                        observed.push((h, i, e.t));
                    }
                }
                TraceKind::PolicyFired if self.in_window => self.policy_fired += 1,
                TraceKind::Composition if self.in_window => self.compositions += 1,
                _ => {}
            }
        }
        self.cursor = entries.len();
        for (h, i, t) in observed {
            if self.pending[h] != Some(i) {
                continue;
            }
            let status = self.room_status(h);
            if (status - self.intents[i].value).abs() <= TOLERANCE {
                let rec = &self.intents[i];
                let host = ms(rec.due_host.elapsed() - (self.paused - rec.paused_at_due));
                self.intents[i].done = Some((t, host));
                self.pending[h] = None;
                if self.traced {
                    let due = self.intents[i].due_host;
                    self.span("intent", due, Instant::now(), Some(i));
                }
            }
        }
    }

    fn room_status(&self, h: usize) -> f64 {
        let spec = &self.home(h).room_spec;
        self.fleet
            .space
            .status(spec)
            .ok()
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::NAN)
    }

    /// Runs every event due at or before `at`, then sets the clock to `at`.
    fn advance_to(&mut self, at: Time) {
        while matches!(self.fleet.space.sim.next_at(), Some(t) if t <= at) {
            self.step();
        }
        let space = &mut self.fleet.space;
        space.sim.run_until(&mut space.world, at);
        if space.sim.now() != at {
            self.out.problems.push(format!(
                "generator late: due {at} ns, clock at {} ns",
                space.sim.now()
            ));
        }
    }

    fn fail_pending(&mut self, h: usize) {
        if let Some(i) = self.pending[h].take() {
            self.intents[i].failed = true;
        }
    }

    fn act(&mut self, action: &Action, at: Time) {
        match *action {
            Action::WindowStart | Action::WindowEnd | Action::Slice => {
                unreachable!("handled by the pass")
            }
            Action::Intent {
                home,
                value,
                measured,
            } => {
                self.fail_pending(home);
                let i = self.intents.len();
                let before = self.room_status(home);
                let vacuous = (before - value).abs() <= TOLERANCE;
                self.intents.push(IntentRec {
                    value,
                    due: at,
                    due_host: Instant::now(),
                    paused_at_due: self.paused,
                    measured,
                    slice: self.slice,
                    committed: false,
                    done: None,
                    failed: vacuous,
                });
                self.expect[home] = Some(value);
                if vacuous {
                    self.out.problems.push(format!(
                        "intent {i} on home {home} at {at} ns: room already at {before}"
                    ));
                    return;
                }
                let spec = self.home(home).room_spec.clone();
                let t0 = Instant::now();
                let ok = self.space().set_intent(&spec, value.into()).is_ok();
                self.span("set_intent", t0, Instant::now(), Some(i));
                if ok {
                    self.pending[home] = Some(i);
                } else {
                    self.intents[i].failed = true;
                }
            }
            Action::Toggle { home, lamp, value } => {
                let lamp = self.home(home).lamps[lamp].clone();
                let vendor = to_vendor_brightness(&lamp.kind, value).expect("vendor lamp");
                let patch = object([(
                    "control",
                    object([(
                        "brightness",
                        object([("intent", vendor.into()), ("status", vendor.into())]),
                    )]),
                )]);
                self.physical(&lamp.name, patch);
            }
            Action::Motion { home } => {
                let motion = self.home(home).motion.clone().expect("motion home");
                let now_s = at as f64 / 1e9;
                let patch = object([(
                    "obs",
                    object([
                        ("last_triggered_time", now_s.into()),
                        ("motion", true.into()),
                    ]),
                )]);
                self.physical(&motion.name, patch);
            }
            Action::Activity { home, idle } => {
                self.expect[home] = None;
                let room = self.home(home).room.name.clone();
                let activity = if idle { "IDLE" } else { "ACTIVE" };
                self.physical(
                    &room,
                    object([("obs", object([("activity", activity.into())]))]),
                );
            }
            Action::Query { shape, slot } => self.query(shape, slot),
            Action::Yield { home, lamp } | Action::Unyield { home, lamp } => {
                let h = self.home(home);
                let (child, parent) = (h.unilamps[lamp].clone(), h.room.clone());
                let t0 = Instant::now();
                let r = if matches!(action, Action::Yield { .. }) {
                    self.space().yield_(&child, &parent)
                } else {
                    self.space().unyield(&child, &parent)
                };
                let t1 = Instant::now();
                if let Err(e) = r {
                    self.out.problems.push(format!("yield/unyield failed: {e}"));
                }
                self.span("topology.verb", t0, t1, None);
                self.verb_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
                self.churn(at, t1.duration_since(t0));
            }
            Action::Join { home } => {
                let t0 = Instant::now();
                let mut verbs = Vec::new();
                let built = fleet::build_home(&mut self.fleet.space, self.spec, home, &mut verbs);
                let t1 = Instant::now();
                self.span("namespace.join", t0, t1, None);
                match built {
                    Ok(h) => {
                        self.room_index.insert(h.room.to_string(), home);
                        if self.fleet.homes.len() <= home {
                            self.fleet.homes.resize(home + 1, None);
                            self.pending.resize(home + 1, None);
                            self.expect.resize(home + 1, Some(INITIAL_BRIGHTNESS));
                        }
                        self.fleet.homes[home] = Some(h);
                    }
                    Err(e) => self
                        .out
                        .problems
                        .push(format!("home {home} failed to join: {e}")),
                }
                if self.in_window {
                    self.verb_us.extend(verbs);
                    self.join_ms.push(ms(t1.duration_since(t0)));
                }
                self.churn(at, t1.duration_since(t0));
            }
            Action::Leave { home } => {
                self.fail_pending(home);
                let h = self.fleet.homes[home].take().expect("leaving home is live");
                let t0 = Instant::now();
                let r = fleet::remove_home(&mut self.fleet.space, &h);
                let t1 = Instant::now();
                self.span("namespace.leave", t0, t1, None);
                if let Err(e) = r {
                    self.out
                        .problems
                        .push(format!("home {home} failed to leave: {e}"));
                }
                self.room_index.remove(&h.room.to_string());
                if self.in_window {
                    self.leave_ms.push(ms(t1.duration_since(t0)));
                }
                self.churn(at, t1.duration_since(t0));
            }
        }
    }

    /// Takes one reference probe, outside every timing.
    fn probe_speed(&mut self) {
        let (a0, b0) = alloc::snapshot();
        let t0 = Instant::now();
        self.reference.probe();
        self.paused += t0.elapsed();
        let (a1, b1) = alloc::snapshot();
        self.probe_allocs.0 += a1 - a0;
        self.probe_allocs.1 += b1 - b0;
    }

    /// Records one admin action's host time. A home leaving and one
    /// joining at the same instant are one churn operation.
    fn churn(&mut self, at: Time, d: Duration) {
        if !self.in_window {
            return;
        }
        if self.last_churn_at == Some(at) {
            if let Some(last) = self.out.churn_ms.last_mut() {
                last.1 += ms(d);
                return;
            }
        }
        self.last_churn_at = Some(at);
        self.out.churn_ms.push((self.slice, ms(d)));
    }

    fn physical(&mut self, name: &str, patch: Value) {
        let t0 = Instant::now();
        let r = self.space().physical_event(name, patch);
        self.span("physical_event", t0, Instant::now(), None);
        if let Err(e) = r {
            self.out
                .problems
                .push(format!("physical event on {name} failed: {e}"));
        }
    }

    fn query(&mut self, shape: usize, slot: usize) {
        let q = &self.queries[shape][slot];
        let t0 = Instant::now();
        let rows = self.fleet.space.world.api.query(Space::USER, q);
        let t1 = Instant::now();
        self.span("query", t0, t1, None);
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => {
                self.out.problems.push(format!("query failed: {e}"));
                return;
            }
        };
        self.queries_run += 1;
        if self.in_window {
            let us = t1.duration_since(t0).as_secs_f64() * 1e6;
            self.out.query_us.push((self.slice, us));
            if QUERY_SHAPES[shape].2 {
                self.indexed_us.push(us);
            } else {
                self.scan_us.push(us);
            }
            self.rows.push(rows.len() as f64);
        } else if self.queries_run.is_multiple_of(CHECK_QUERY_EVERY) {
            self.check_query(shape, slot, rows);
        }
    }

    /// Compares a query's rows with a brute-force filter over the dump.
    fn check_query(&mut self, shape: usize, slot: usize, rows: Vec<Object>) {
        let q = &self.queries[shape][slot];
        let mut want: Vec<Object> = self
            .fleet
            .space
            .world
            .api
            .dump()
            .into_iter()
            .filter(|o| q.matches(&o.oref, &o.model))
            .collect();
        let mut got = rows;
        want.sort_by(|a, b| a.oref.cmp(&b.oref));
        got.sort_by(|a, b| a.oref.cmp(&b.oref));
        if want != got {
            self.out.problems.push(format!(
                "query {shape}/{slot}: {} rows, brute force {}",
                got.len(),
                want.len()
            ));
        }
    }
}

/// Compiles every query shape at every threshold, outside any timing.
fn compile_queries() -> Vec<Vec<Query>> {
    QUERY_SHAPES
        .iter()
        .map(|(kind, pred, _)| {
            QUERY_SLOTS
                .iter()
                .map(|x| {
                    Query::kind(*kind)
                        .filter(&pred.replace("{}", &format!("{x}")))
                        .expect("query shape compiles")
                })
                .collect()
        })
        .collect()
}

/// Runs one pass over a freshly built fleet. `traced` turns on the spans,
/// probes and per-layer accounting.
pub fn pass(
    spec: &Spec,
    fleet: Fleet,
    schedule: &Schedule,
    traced: bool,
    reference: &mut Reference,
) -> (PassResult, Fleet) {
    let homes = fleet.homes.len();
    let room_index = fleet
        .homes
        .iter()
        .flatten()
        .map(|h| (h.room.to_string(), h.id))
        .collect();
    let cursor = fleet.space.world.trace.len();
    let r = Runner {
        spec,
        reference,
        paused: Duration::ZERO,
        probe_allocs: (0, 0),
        window_probe_allocs: (0, 0),
        probe_from: 0,
        fleet,
        traced,
        origin: Instant::now(),
        queries: compile_queries(),
        room_index,
        intents: Vec::new(),
        pending: vec![None; homes],
        expect: vec![Some(INITIAL_BRIGHTNESS); homes],
        cursor,
        in_window: false,
        queries_run: 0,
        steps: 0,
        out: PassResult::default(),
        window_span: None,
        step_us: Vec::new(),
        freeze_us: Vec::new(),
        view_us: Vec::new(),
        indexed_us: Vec::new(),
        scan_us: Vec::new(),
        rows: Vec::new(),
        verb_us: Vec::new(),
        join_ms: Vec::new(),
        leave_ms: Vec::new(),
        policy_fired: 0,
        compositions: 0,
        marks: Vec::new(),
        ends: Vec::new(),
        slice: 0,
        last_churn_at: None,
    };
    // Actions are due relative to the end of set-up.
    let base = r.fleet.space.sim.now();
    run_from(r, schedule, base)
}

fn run_from(mut r: Runner<'_>, schedule: &Schedule, base: Time) -> (PassResult, Fleet) {
    let mut start = Snap::default();
    let mut end = Snap::default();
    for due in &schedule.actions {
        let at = base + due.at;
        r.advance_to(at);
        match due.action {
            Action::WindowStart => {
                r.probe_from = r.reference.len();
                r.probe_speed();
                r.in_window = true;
                if r.traced {
                    let now = Instant::now();
                    r.out.spans.push(Span {
                        name: "window",
                        start_ns: ns_since(r.origin, now),
                        end_ns: 0,
                        parent: None,
                        intent: None,
                    });
                    r.window_span = Some(r.out.spans.len() - 1);
                }
                start = Snap::take(&r.fleet.space);
                r.marks.push(start.host.expect("taken"));
                r.probe_allocs = (0, 0);
            }
            Action::Slice => {
                r.ends.push(Instant::now());
                r.probe_speed();
                r.marks.push(Instant::now());
                r.slice += 1;
            }
            Action::WindowEnd => {
                end = Snap::take(&r.fleet.space);
                r.ends.push(end.host.expect("taken"));
                r.window_probe_allocs = r.probe_allocs;
                r.in_window = false;
                if let Some(w) = r.window_span.take() {
                    r.out.spans[w].end_ns = ns_since(r.origin, end.host.expect("taken"));
                }
                r.probe_speed();
            }
            ref a => r.act(a, at),
        }
    }
    fleet::settle(&mut r.fleet.space);
    r.scan();
    finish(r, &start, &end, schedule)
}

fn finish(mut r: Runner<'_>, start: &Snap, end: &Snap, schedule: &Schedule) -> (PassResult, Fleet) {
    let slice_host_s: Vec<f64> = r
        .marks
        .iter()
        .zip(&r.ends)
        .map(|(s, e)| e.duration_since(*s).as_secs_f64())
        .collect();
    // Intent outcomes.
    for rec in &mut r.intents {
        if let Some((t, _)) = rec.done {
            if t - rec.due > INTENT_HOLD {
                rec.failed = true;
            }
        } else {
            rec.failed = true;
        }
    }
    let measured: Vec<&IntentRec> = r.intents.iter().filter(|i| i.measured).collect();
    let mut out = std::mem::take(&mut r.out);
    out.window_host_s = slice_host_s.iter().sum();
    out.slice_host_s = slice_host_s;
    out.slice_slowness = r
        .reference
        .samples_since(r.probe_from)
        .windows(2)
        .map(|w| (w[0] + w[1]) / 2.0)
        .take(out.slice_host_s.len())
        .collect();
    out.slowness = median(&out.slice_slowness);
    out.attempted = measured.len() as u64;
    out.failed = measured.iter().filter(|i| i.failed).count() as u64;
    for rec in measured.iter().filter(|i| !i.failed) {
        let (t, host) = rec.done.expect("completed");
        out.intent_ttf_ms.push((t - rec.due) as f64 / 1e6);
        out.intent_host_ms.push((rec.slice, host));
    }
    let unmeasured_failed = r.intents.iter().filter(|i| !i.measured && i.failed).count();
    if unmeasured_failed > 0 {
        out.problems.push(format!(
            "{unmeasured_failed} intents outside the window never completed"
        ));
    }
    if schedule.skipped > 0 {
        out.problems.push(format!(
            "generator skipped {} intents: no free home",
            schedule.skipped
        ));
    }
    // End state: every intent home whose lamps the room controls shows
    // its last intent.
    let space = &r.fleet.space;
    for (h, home) in r.fleet.homes.iter().enumerate() {
        let (Some(_), Some(want)) = (home, r.expect[h]) else {
            continue;
        };
        if h < r.spec.motion_homes {
            continue;
        }
        let status = r.room_status(h);
        if (status - want).abs() > TOLERANCE {
            out.problems.push(format!(
                "home {h}: room status {status} after settling, intent {want}"
            ));
        }
    }
    if let Err((a, b)) = space.world.graph.borrow().verify_multitree() {
        out.problems
            .push(format!("graph is not a multitree: {a} / {b}"));
    }
    if let Err(e) = space.world.api.audit_sizes() {
        out.problems.push(format!("size audit: {e}"));
    }
    out.exact = exact_values(&r, start, end, &out);
    if r.traced {
        layers(&mut r, start, end, &mut out);
    }
    (out, r.fleet)
}

/// Values that depend only on the seed: virtual latencies and counts.
fn exact_values(
    r: &Runner<'_>,
    start: &Snap,
    end: &Snap,
    out: &PassResult,
) -> BTreeMap<&'static str, String> {
    let ttf: Vec<String> = out.intent_ttf_ms.iter().map(|v| format!("{v}")).collect();
    BTreeMap::from([
        ("intent_ttf_ms", ttf.join(",")),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("simnet.events", (end.executed - start.executed).to_string()),
        (
            "apiserver.store.commits",
            (end.revision - start.revision).to_string(),
        ),
        (
            "core.trace.entries",
            r.fleet.space.world.trace.len().to_string(),
        ),
        (
            "final_revision",
            r.fleet.space.world.api.revision().to_string(),
        ),
    ])
}

fn hist_delta(m: &Metrics, start: &Snap, end: &Snap, name: &str) -> Vec<f64> {
    let from = start.samples.get(name).copied().unwrap_or(0);
    let to = end.samples.get(name).copied().unwrap_or(0);
    m.histogram(name)
        .map(|h| h.samples()[from..to].to_vec())
        .unwrap_or_default()
}

fn layers(r: &mut Runner<'_>, start: &Snap, end: &Snap, out: &mut PassResult) {
    let space = &r.fleet.space;
    let m = &space.world.metrics;
    let d = |name: &str| (end.counter(name) - start.counter(name)) as f64;
    let intents = out.attempted as f64;
    let events = (end.executed - start.executed) as f64;
    let plan = hist_delta(m, start, end, "plan_parallelism");
    let cycles = hist_delta(m, start, end, "controller_reconcile_ms").len() as f64;
    let conflicts = d("controller_conflicts");
    let deliveries = d("driver_deliveries");
    let reconcile_conflicts = d("reconcile_conflicts");
    let (ws, we) = (&start.watch, &end.watch);
    let appended = (we.events_appended - ws.events_appended) as f64;
    let delivered = (we.events_delivered - ws.events_delivered) as f64;
    let commits = (end.revision - start.revision) as f64;
    let samples: usize = m.histograms().map(|(_, h)| h.count()).sum();
    let l = &mut out.layers;
    l.insert("simnet.events", events);
    l.insert("simnet.events_per_intent", ratio(events, intents));
    l.insert("simnet.step_us_p50", median(&r.step_us));
    l.insert("simnet.step_us_p90", quantile(&r.step_us, 0.9));
    l.insert("simnet.wake_drops", d("wake_drops"));
    l.insert("core.batch.plan_jobs", plan.iter().sum());
    l.insert("core.batch.plan_flushes", plan.len() as f64);
    l.insert(
        "core.batch.plan_s",
        hist_delta(m, start, end, "plan_ns").iter().sum::<f64>() / 1e9,
    );
    l.insert(
        "core.batch.land_s",
        hist_delta(m, start, end, "land_ns").iter().sum::<f64>() / 1e9,
    );
    l.insert(
        "core.graph.edges",
        space.world.graph.borrow().edges().len() as f64,
    );
    l.insert("core.graph.freeze_us", median(&r.freeze_us));
    l.insert("apiserver.server.snapshot_view_us", median(&r.view_us));
    l.insert("core.controller.cycles", cycles);
    l.insert("core.controller.conflicts", conflicts);
    l.insert("core.controller.conflict_ratio", ratio(conflicts, cycles));
    l.insert(
        "core.controller.followup_cycles",
        d("controller_followup_cycles"),
    );
    l.insert("core.controller.retries", d("controller_retries"));
    l.insert("core.controller.gave_up", d("controller_gave_up"));
    l.insert("core.driver.deliveries", deliveries);
    l.insert("core.driver.coalesced_events", d("driver_coalesced_events"));
    l.insert("core.driver.followup_cycles", d("driver_followup_cycles"));
    l.insert("core.driver.errors", d("driver_errors"));
    l.insert("core.driver.conflicts", reconcile_conflicts);
    l.insert(
        "core.driver.conflict_ratio",
        ratio(reconcile_conflicts, deliveries),
    );
    l.insert("core.policer.fired", r.policy_fired as f64);
    l.insert("core.topology.compositions", r.compositions as f64);
    l.insert("core.topology.verb_us_p50", median(&r.verb_us));
    l.insert("core.topology.verb_us_p90", quantile(&r.verb_us, 0.9));
    l.insert("core.namespace.join_ms_p50", median(&r.join_ms));
    l.insert("core.namespace.leave_ms_p50", median(&r.leave_ms));
    l.insert("apiserver.store.commits", commits);
    l.insert("apiserver.store.events_appended", appended);
    l.insert("apiserver.store.events_delivered", delivered);
    l.insert("apiserver.store.fanout", ratio(delivered, appended));
    l.insert(
        "apiserver.store.events_coalesced",
        (we.events_coalesced - ws.events_coalesced) as f64,
    );
    l.insert(
        "apiserver.store.deep_clones",
        (we.deep_clones - ws.deep_clones) as f64,
    );
    l.insert(
        "apiserver.store.batch_compaction_passes",
        (we.batch_compaction_passes - ws.batch_compaction_passes) as f64,
    );
    l.insert("apiserver.store.peak_log_len", we.peak_log_len as f64);
    l.insert(
        "apiserver.store.snapshot_reads",
        (end.snapshot_reads - start.snapshot_reads) as f64,
    );
    l.insert(
        "apiserver.store.direct_reads",
        (end.direct_reads - start.direct_reads) as f64,
    );
    let wal_bytes = (end.written - start.written) as f64;
    l.insert("apiserver.wal.bytes", wal_bytes);
    l.insert("apiserver.wal.bytes_per_commit", ratio(wal_bytes, commits));
    l.insert("apiserver.query.indexed_us_p50", median(&r.indexed_us));
    l.insert("apiserver.query.scan_us_p50", median(&r.scan_us));
    l.insert("apiserver.query.rows_p50", median(&r.rows));
    l.insert(
        "apiserver.executor.lanes",
        space.world.api.executor_threads() as f64,
    );
    l.insert(
        "apiserver.executor.pooled_workers",
        space.world.api.pooled_workers() as f64,
    );
    let (a0, b0) = start.allocs;
    let (a1, b1) = end.allocs;
    // Reference probes inside the window allocate too; they are not the
    // runtime's.
    let (a1, b1) = (a1 - r.window_probe_allocs.0, b1 - r.window_probe_allocs.1);
    l.insert("host.allocs_per_intent", ratio((a1 - a0) as f64, intents));
    l.insert(
        "host.alloc_bytes_per_intent",
        ratio((b1 - b0) as f64, intents),
    );
    l.insert("core.trace.entries", space.world.trace.len() as f64);
    l.insert("simnet.metrics.samples", samples as f64);
    // Coverage: host time inside the benchmark's calls into the layers,
    // over the window's host time (reference probes excluded from both).
    let (w0, w1) = (
        ns_since(r.origin, start.host.expect("taken")),
        ns_since(r.origin, end.host.expect("taken")),
    );
    let covered: u64 = out
        .spans
        .iter()
        .filter(|s| s.name != "window" && s.name != "intent" && s.start_ns >= w0 && s.end_ns <= w1)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    l.insert(
        "trace.coverage",
        ratio(covered as f64, out.window_host_s * 1e9),
    );
    out.exact.insert("host.allocs", (a1 - a0).to_string());
    out.exact.insert("host.alloc_bytes", (b1 - b0).to_string());
}
