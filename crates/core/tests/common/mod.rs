//! Run fingerprints shared by the replay tests: everything observable about
//! one run (final virtual clock, every counter, the full causal trace, and
//! the store dump with resource versions), plus a stable FNV-1a digest of
//! it for golden fixtures recorded against earlier versions of the runtime.

use dspace_core::Space;
use dspace_value::json;

/// Everything observable about one run. Wall-clock timings are histograms,
/// never counters, so none of this depends on the host.
#[derive(Debug, PartialEq)]
pub struct RunSummary {
    pub now_ms_bits: u64,
    pub counters: Vec<(String, u64)>,
    pub trace: Vec<(u64, String, String, String)>,
    pub store: Vec<(String, u64, String)>,
}

pub fn summarize(space: &Space) -> RunSummary {
    RunSummary {
        now_ms_bits: space.now_ms().to_bits(),
        counters: space
            .world
            .metrics
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        trace: space
            .world
            .trace
            .entries()
            .iter()
            .map(|e| {
                (
                    e.t,
                    format!("{:?}", e.kind),
                    e.subject.clone(),
                    e.detail.clone(),
                )
            })
            .collect(),
        store: space
            .world
            .api
            .dump()
            .into_iter()
            .map(|o| {
                (
                    o.oref.to_string(),
                    o.resource_version,
                    json::to_string(&o.model),
                )
            })
            .collect(),
    }
}

impl RunSummary {
    /// One line per field, tab-separated, in summary order.
    pub fn serialize(&self) -> String {
        let mut out = format!("clock\t{}\n", self.now_ms_bits);
        for (k, v) in &self.counters {
            out.push_str(&format!("counter\t{k}\t{v}\n"));
        }
        for (t, kind, subject, detail) in &self.trace {
            out.push_str(&format!("trace\t{t}\t{kind}\t{subject}\t{detail}\n"));
        }
        for (oref, rv, model) in &self.store {
            out.push_str(&format!("store\t{oref}\t{rv}\t{model}\n"));
        }
        out
    }

    /// 64-bit FNV-1a over [`serialize`](Self::serialize): stable across
    /// toolchains and processes, unlike `DefaultHasher`.
    pub fn digest(&self) -> u64 {
        self.serialize()
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

/// The shard worker cap `max` leg of the cap-1-vs-max replay checks.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}
