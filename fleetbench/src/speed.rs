//! A host-speed index, so host timings can be read at a fixed reference
//! speed.
//!
//! The host this benchmark runs on drifts: the same deterministic run can
//! take 1.4× longer from one minute to the next, with the thread's CPU time
//! tracking wall time and no steal, so the slowdown is in execution speed
//! itself. A fixed reference kernel timed during the run slows down with
//! it. The kernel uses only the standard library and never changes, so a
//! change to the runtime cannot move it. It mimics what the runtime spends
//! its time on: string-keyed `BTreeMap` inserts and lookups (the runtime's
//! stores and indexes) and small allocations of mixed sizes freed in
//! random order. Both parts slow down with the runtime by the same factor
//! (a fitted exponent of 0.95–0.99 over same-seed runs of either
//! workload); a pointer chase or a pure arithmetic loop, also tried, did
//! not (exponents of about 2 and 3).

use std::collections::BTreeMap;
use std::time::Instant;

/// Kernel times, in µs, on the host the nominal speed refers to (a 2-vCPU
/// Xeon VM in a fast phase). Changing them rescales every host metric.
const MAP_NOMINAL_US: f64 = 3_000.0;
const ALLOC_NOMINAL_US: f64 = 9_000.0;
const MAP_KEYS: u64 = 4_000;
const ALLOCS: usize = 50_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel's samples.
#[derive(Debug, Default)]
pub struct Reference {
    /// Slowness samples: kernel time ÷ nominal time.
    samples: Vec<f64>,
}

impl Reference {
    /// Times the kernel twice and records the host's slowness from the
    /// faster pass (the first may pay for a cold cache): 1 at the nominal
    /// speed, 1.4 on a host 40 % slower.
    pub fn probe(&mut self) {
        let slowness = kernel().min(kernel());
        self.samples.push(slowness);
    }

    /// The slowness samples taken since sample number `from`.
    pub fn samples_since(&self, from: usize) -> &[f64] {
        &self.samples[from.min(self.samples.len())..]
    }

    /// Number of samples taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

/// One pass of the kernel: the geometric mean of its two parts' times,
/// each over its nominal time.
fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut map: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15;
    for i in 0..MAP_KEYS {
        map.insert(format!("key-{}", xorshift(&mut x) % 100_000), vec![i; 8]);
    }
    let mut hits = 0u64;
    for i in 0..MAP_KEYS {
        if let Some(v) = map.get(&format!("key-{}", (i * 7919) % 100_000)) {
            hits += v[0];
        }
    }
    let mut values: Vec<u64> = map.values().map(|v| v[0] ^ hits).collect();
    values.sort_unstable();
    std::hint::black_box(&values);
    drop(map);
    let map_us = t0.elapsed().as_secs_f64() * 1e6;

    let t1 = Instant::now();
    let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(ALLOCS);
    for _ in 0..ALLOCS {
        let len = 16 + (xorshift(&mut x) % 496) as usize;
        blocks.push(vec![1; len]);
    }
    for i in (1..blocks.len()).rev() {
        let j = (xorshift(&mut x) % (i as u64 + 1)) as usize;
        blocks.swap(i, j);
    }
    drop(std::hint::black_box(blocks));
    let alloc_us = t1.elapsed().as_secs_f64() * 1e6;
    ((map_us / MAP_NOMINAL_US) * (alloc_us / ALLOC_NOMINAL_US)).sqrt()
}
