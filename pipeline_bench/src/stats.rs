//! Sample statistics and operation accounting shared by the phases.

use std::fmt::Display;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The middle value, or the mean of the two middle values of an even
/// count: the median of two units is then not just the slower one.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 {
        return percentile(values, 50.0);
    }
    if n == 0 {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples beyond it, or `None` when even the 90th does not.
pub fn supported_tail(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Operations attempted and failed. An operation is one call into the
/// public API; an `Err` return or a panic is a failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Run one operation.
    pub fn run<T, E: Display>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Option<T> {
        self.run_many(what, 1, || f().map_err(|e| e.to_string()))
    }

    /// Run one call that covers `n` operations (a study or grading call
    /// over `n` items); a failure of the call fails all of them.
    pub fn run_many<T>(
        &mut self,
        what: &str,
        n: u64,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += n;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                self.failed += n;
                eprintln!("operation failed: {what}: {e}");
                None
            }
            Err(_) => {
                self.failed += n;
                eprintln!("operation panicked: {what}");
                None
            }
        }
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Tell `run.py` how far the run got before a unit of work
    /// that will attempt `inflight` more operations. If the process dies,
    /// the script counts those as failed.
    pub fn checkpoint(&self, inflight: u64) {
        let mut out = std::io::stdout().lock();
        let _ = writeln!(
            out,
            "@progress {} {} {}",
            self.attempted, self.failed, inflight
        );
        let _ = out.flush();
    }
}

/// Peak resident memory of this process so far, MiB (`VmHWM`), or NaN
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Make glibc's malloc keep the memory the program frees instead of
/// returning it to the kernel: blocks up to 32 MiB come from the heap, and
/// the heap is never trimmed. Returning memory and faulting it back in made
/// the units that allocate most (the study, the session) up to twice as
/// slow in a process that had graded before, by an amount that varied with
/// the host's load. A no-op off glibc.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only changes malloc's tuning parameters; glibc
        // serializes it with allocation.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// FNV-1a, for output digests that must repeat across processes.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separate consecutive fields.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn feed_str(&mut self, s: &str) {
        self.feed(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// splitmix64: a stateless mix for deriving per-item decisions from the seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
