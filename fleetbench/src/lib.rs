//! Fleet benchmark for the dSpace runtime: a seeded, open-loop, multi-home
//! fleet driven through the public `Space`/`ApiServer` API.
//!
//! [`run`] builds the workload's fleet several times (the median is
//! `setup_s`), drives one fleet through the schedule untimed for the
//! warm-up and timed for the window, checks every output, and reports the
//! end-to-end metrics. With `trace` it drives one more fleet with spans,
//! probes and per-layer accounting on, and reports the per-layer metrics.
//! See `README.md` beside this crate for the metric → layer map.

pub mod alloc;
pub mod fleet;
pub mod run;
pub mod schedule;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use dspace_core::Space;

use crate::fleet::Spec;
use crate::run::{build_fleet, pass, Fleet, PassResult};
use crate::schedule::Schedule;
use crate::speed::Reference;
use crate::stats::{median, quantile, ratio, slice_quantile};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: Spec,
    /// Seed of the schedule and of the space.
    pub seed: u64,
    /// Nominal run length; the timed window lasts
    /// `seconds × spec.window_per_second` virtual seconds (half that in
    /// each pass of a traced run).
    pub seconds: f64,
    /// Report per-layer metrics from a traced pass.
    pub trace: bool,
    /// Directory for journals and span files (inside the checkout).
    pub workdir: PathBuf,
}

/// A metric as reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Measured intents attempted.
    pub attempted: u64,
    /// Measured intents failed.
    pub failed: u64,
    /// End-to-end metrics (untraced pass).
    pub end_to_end: Vec<Metric>,
    /// The host timings of `end_to_end` as raw wall-clock, and the host's
    /// slowness they were divided by.
    pub raw_wall_clock: Vec<Metric>,
    /// Per-layer metrics (traced pass; empty without `trace`).
    pub per_layer: Vec<Metric>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Run record: host, commit, seed, executor lanes, journal location.
    pub record: BTreeMap<&'static str, String>,
    /// Values that repeat exactly per seed (for the determinism test).
    pub exact: BTreeMap<&'static str, String>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Units of the per-layer metrics, by name suffix or prefix.
fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_us") || name.contains("_us_") {
        "us"
    } else if name.ends_with("_ms") || name.contains("_ms_") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.contains("bytes") {
        "bytes"
    } else if name.contains("ratio") || name.ends_with("fanout") || name.starts_with("trace.") {
        "ratio"
    } else {
        "count"
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The commit the benchmark was built from: `git rev-parse HEAD` when the
/// checkout is a repository, else a hash of the runtime's sources.
fn commit(root: &Path) -> String {
    let git = root.join(".git").exists().then(|| {
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output()
    });
    if let Some(Ok(out)) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in fs::read(&f).unwrap_or_default() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

/// Whether `dir` sits on a tmpfs mount, from the mount table.
fn on_tmpfs(dir: &Path) -> bool {
    let Ok(dir) = dir.canonicalize() else {
        return false;
    };
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fstype == "tmpfs"))
        })
        .max()
        .is_some_and(|(_, tmpfs)| tmpfs)
}

/// Closes a durable fleet, re-opens its journal, checks the recovered
/// store equals the live one, and returns the re-open's host ms.
fn recover(spec: &Spec, seed: u64, fleet: Fleet, problems: &mut Vec<String>) -> Option<f64> {
    let dir = fleet.journal.clone()?;
    let live = fleet.space.world.api.dump();
    drop(fleet);
    let t0 = Instant::now();
    let reopened = Space::open(fleet::config(spec, seed, Some(dir.clone())));
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    match reopened {
        Ok(space) => {
            if space.world.api.dump() != live {
                problems.push("recovered store differs from the live store".to_string());
            }
        }
        Err(e) => problems.push(format!("journal recovery failed: {e}")),
    }
    let _ = fs::remove_dir_all(&dir);
    Some(recover_ms)
}

/// Runs one benchmark invocation.
pub fn run(opts: &Options) -> Report {
    let spec = &opts.spec;
    // A traced run makes two passes (untraced, then traced, for
    // `trace.overhead`), each over half the window, to stay as long as an
    // untraced run.
    let window_s = opts.seconds * spec.window_per_second * if opts.trace { 0.5 } else { 1.0 };
    let schedule = Schedule::generate(spec, opts.seed, window_s);
    let passes = if opts.trace { 2 } else { 1 };
    let builds = spec.setups.max(passes);
    let state = opts.workdir.join(".fleetbench");
    fs::create_dir_all(&state).expect("benchmark state directory is writable");
    let mut reference = Reference::default();
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut problems = Vec::new();
    let mut results: Vec<PassResult> = Vec::new();
    let mut lanes = 0;
    let mut recover_ms = Vec::new();
    for b in 0..builds {
        let journal = spec
            .durable
            .then(|| state.join(format!("journal-{}-{b}", std::process::id())));
        if let Some(dir) = &journal {
            let _ = fs::remove_dir_all(dir);
        }
        // The host's slowness during a build: the mean of probes taken
        // just before and just after it.
        let from = reference.len();
        reference.probe();
        let t0 = Instant::now();
        let fleet = build_fleet(spec, opts.seed, journal);
        let raw = t0.elapsed().as_secs_f64();
        reference.probe();
        let slowness = reference.samples_since(from).iter().sum::<f64>() / 2.0;
        setup_raw_s.push(raw);
        setup_s.push(raw / slowness);
        if b + passes < builds {
            if let Some(dir) = &fleet.journal {
                let dir = dir.clone();
                drop(fleet);
                let _ = fs::remove_dir_all(dir);
            }
            continue;
        }
        let traced = b + 1 == builds && opts.trace;
        lanes = fleet.space.world.api.executor_threads();
        let (result, fleet) = pass(spec, fleet, &schedule, traced, &mut reference);
        problems.extend(result.problems.iter().cloned());
        recover_ms.extend(recover(spec, opts.seed, fleet, &mut problems));
        results.push(result);
    }
    let base = &results[0];
    let completed = base.intent_ttf_ms.len() as f64;
    // Host timings read at the reference speed: each sample is divided by
    // the host's slowness during its slice (throughput multiplied). The raw
    // wall-clock values are printed alongside.
    let slow = &base.slice_slowness;
    let scaled = |samples: &[(usize, f64)]| -> Vec<(usize, f64)> {
        samples.iter().map(|&(k, v)| (k, v / slow[k])).collect()
    };
    let pooled = |samples: &[(usize, f64)], q: f64| {
        quantile(&samples.iter().map(|&(_, v)| v).collect::<Vec<_>>(), q)
    };
    // Per slice of the window: completed intents due in it over its host
    // time; the median over slices, like every host timing below.
    let mut done = vec![0.0; base.slice_host_s.len()];
    for &(k, _) in &base.intent_host_ms {
        done[k] += 1.0;
    }
    let rates = |scale: bool| -> Vec<f64> {
        (0..done.len())
            .map(|k| ratio(done[k], base.slice_host_s[k]) * if scale { slow[k] } else { 1.0 })
            .collect()
    };
    let (intent_ms, query_us, churn_ms) = (
        scaled(&base.intent_host_ms),
        scaled(&base.query_us),
        scaled(&base.churn_ms),
    );
    // Admin actions are few per slice (5 on `large_fleet`), so their
    // quantiles pool the whole window.
    let end_to_end = vec![
        metric("intents_per_s", median(&rates(true)), "1/s"),
        metric("intent_host_ms_p50", slice_quantile(&intent_ms, 0.5), "ms"),
        metric("intent_host_ms_p90", slice_quantile(&intent_ms, 0.9), "ms"),
        metric("intent_ttf_ms_p50", median(&base.intent_ttf_ms), "ms"),
        metric(
            "intent_ttf_ms_p99",
            quantile(&base.intent_ttf_ms, 0.99),
            "ms",
        ),
        metric(
            "intent_ok_ratio",
            ratio(completed, base.attempted as f64),
            "ratio",
        ),
        metric("query_us_p50", slice_quantile(&query_us, 0.5), "us"),
        metric("query_us_p90", slice_quantile(&query_us, 0.9), "us"),
        metric("churn_op_ms_p50", pooled(&churn_ms, 0.5), "ms"),
        metric("churn_op_ms_p90", pooled(&churn_ms, 0.9), "ms"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    let raw_wall_clock = vec![
        metric("raw.intents_per_s", median(&rates(false)), "1/s"),
        metric(
            "raw.intent_host_ms_p50",
            slice_quantile(&base.intent_host_ms, 0.5),
            "ms",
        ),
        metric(
            "raw.intent_host_ms_p90",
            slice_quantile(&base.intent_host_ms, 0.9),
            "ms",
        ),
        metric(
            "raw.query_us_p50",
            slice_quantile(&base.query_us, 0.5),
            "us",
        ),
        metric(
            "raw.query_us_p90",
            slice_quantile(&base.query_us, 0.9),
            "us",
        ),
        metric("raw.churn_op_ms_p50", pooled(&base.churn_ms, 0.5), "ms"),
        metric("raw.churn_op_ms_p90", pooled(&base.churn_ms, 0.9), "ms"),
        metric("raw.setup_s", median(&setup_raw_s), "s"),
        metric("host.slowness", base.slowness, "ratio"),
    ];
    let mut per_layer = Vec::new();
    if let Some(traced) = results.get(1) {
        for (name, value) in &traced.layers {
            per_layer.push(metric(name, *value, layer_unit(name)));
        }
        per_layer.push(metric(
            "apiserver.wal.recover_ms",
            recover_ms.last().copied().unwrap_or(0.0),
            "ms",
        ));
        per_layer.push(metric(
            "trace.overhead",
            ratio(
                traced.window_host_s / traced.slowness,
                base.window_host_s / base.slowness,
            ),
            "ratio",
        ));
        per_layer.sort_by(|a, b| a.name.cmp(&b.name));
        write_spans(&state, spec.name, opts.seed, &traced.spans);
    }
    let journal = if spec.durable {
        format!("{} (tmpfs: {})", state.display(), on_tmpfs(&state))
    } else {
        "none (in-memory store)".to_string()
    };
    let record = BTreeMap::from([
        ("workload", spec.name.to_string()),
        ("seed", opts.seed.to_string()),
        (
            "host_cores",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("commit", commit(&opts.workdir)),
        ("executor_lanes", lanes.to_string()),
        ("journal", journal),
        ("window_virtual_s", format!("{window_s}")),
        ("measured_intents", base.attempted.to_string()),
        ("setup_builds", setup_s.len().to_string()),
        (
            "setup_slowness",
            format!("{:.4}", median(&setup_raw_s) / median(&setup_s)),
        ),
        (
            "slice_host_s",
            format!(
                "{:?}",
                base.slice_host_s
                    .iter()
                    .map(|x| (x * 1e3).round() / 1e3)
                    .collect::<Vec<_>>()
            ),
        ),
    ]);
    Report {
        correct: problems.is_empty(),
        attempted: base.attempted,
        failed: base.failed,
        end_to_end,
        raw_wall_clock,
        per_layer,
        problems,
        record,
        exact: results.last().map(|r| r.exact.clone()).unwrap_or_default(),
    }
}

fn write_spans(dir: &Path, workload: &str, seed: u64, spans: &[run::Span]) {
    let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
    let write = || -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(fs::File::create(&path)?);
        writeln!(f, "id\tparent\tname\tintent\tstart_ns\tend_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                s.name,
                opt(s.intent),
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("fleetbench: could not write {}: {e}", path.display());
    }
}

/// Formats a report as the benchmark's output: a human-readable table,
/// then the result object as the last line.
pub fn render(report: &Report, trace: bool) -> String {
    let mut s = String::new();
    let record: Vec<String> = report
        .record
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_str(v)))
        .collect();
    s.push_str(&format!("# run {{{}}}\n", record.join(", ")));
    for p in &report.problems {
        s.push_str(&format!("# FAILED CHECK: {p}\n"));
    }
    for m in report
        .end_to_end
        .iter()
        .chain(&report.raw_wall_clock)
        .chain(&report.per_layer)
    {
        s.push_str(&format!("{:<44} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    let shown = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    s.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ));
    s
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(v: &str) -> String {
    let escaped: String = v
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}
