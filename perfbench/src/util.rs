//! Small shared helpers: a seeded generator, stratified draws, order
//! statistics, process/machine probes and the metric record.

use crate::oracle::Truth;
use std::time::Instant;

/// SplitMix64: a tiny seeded generator, independent of the engine's
/// own RNG, so the benchmark's inputs do not move when the engine's
/// generators change.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one named input stream of a run: the same
    /// `(seed, stream)` pair always gives the same sequence.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` stratified draws from `[0, 1)`: one uniform draw in each of the
/// `n` equal strata, in random order. Every run then sees the same
/// distribution of query sizes, so a percentile cannot fall into the gap
/// between two size classes and jump with the seed.
pub fn stratified(n: usize, rng: &mut Rng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|i| (i as f64 + rng.unit()) / n as f64).collect();
    rng.shuffle(&mut v);
    v
}

/// Maps `t ∈ [0, 1)` log-uniformly onto `[lo, hi]`.
pub fn log_uniform(lo: f64, hi: f64, t: f64) -> f64 {
    lo * (hi / lo).powf(t)
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nearest-rank quantile of `v` (`q ∈ [0, 1]`); sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result.
pub fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        times.push(secs_since(t));
        last = Some(out);
    }
    (median(&times), last.expect("reps > 0"))
}

/// Resident set size of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The machine's cumulative steal ticks (8th field of the `cpu` line of
/// `/proc/stat`): time this VM's vCPUs were runnable but the host ran
/// someone else. A run whose steal count jumps was disturbed.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The outcome counters of a run: every checked operation is attempted;
/// it fails when it errs or its answer differs from the oracle. A
/// property violation on an operation that did not fail makes the run
/// incorrect.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Points of checked answers the oracle could not certify (accepted
    /// either way).
    pub undecided: u64,
}

impl Outcome {
    /// Checks one answer (ascending ids) against the oracle: the
    /// operation fails unless it agrees on every decided point.
    pub fn answer<I: Ord + Copy>(
        &mut self,
        truth: &Truth<I>,
        got: &[I],
        what: impl FnOnce() -> String,
    ) -> bool {
        self.undecided += truth.undecided.len() as u64;
        let ok = truth.matches(got);
        self.op(ok, || {
            format!(
                "{}: {} ids, oracle {} (+{} undecided)",
                what(),
                got.len(),
                truth.inside.len(),
                truth.undecided.len()
            )
        });
        ok
    }

    /// Records one operation; `ok == false` counts it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", what());
            }
        }
    }

    /// Records a property check on an operation that did not fail.
    pub fn property(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.violations.len() < 5 {
                eprintln!("PROPERTY VIOLATED: {msg}");
            }
            self.violations.push(msg);
        }
    }
}

/// The metrics of one run, in the order they were recorded.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with all its digits (Rust's `Display`
/// prints the shortest exact round-trip decimal, never an exponent).
pub fn json_num(v: f64) -> String {
    format!("{v}")
}
