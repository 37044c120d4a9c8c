//! Sample summaries, the run budget, the decision digest and peak memory.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Named values of one measured unit (a replay or a round), or of a run.
pub type Values = BTreeMap<&'static str, f64>;

/// Nanoseconds of a duration, saturated to `u64`.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile `p` (0–100) of `samples`; 0 when there are none.
/// Sorts `samples` in place.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Per-name median over units.
pub fn medians(units: &[Values]) -> Values {
    let names: BTreeSet<&'static str> = units.iter().flat_map(|u| u.keys().copied()).collect();
    names
        .into_iter()
        .map(|name| {
            let values: Vec<f64> = units.iter().filter_map(|u| u.get(name).copied()).collect();
            (name, median(&values))
        })
        .collect()
}

/// The measured units of one run: timings of the untraced and the traced
/// ones, and the work counts every traced unit must repeat exactly.
#[derive(Default)]
pub struct Units {
    plain: Vec<Values>,
    traced: Vec<Values>,
    counts: Option<Values>,
}

impl Units {
    /// Records one unit; `counts` is `Some` for a traced unit. Returns
    /// `false` when those counts differ from the first traced unit's.
    pub fn push(&mut self, timings: Values, counts: Option<Values>) -> bool {
        let Some(counts) = counts else {
            self.plain.push(timings);
            return true;
        };
        self.traced.push(timings);
        *self.counts.get_or_insert_with(|| counts.clone()) == counts
    }

    pub fn len(&self) -> usize {
        self.plain.len() + self.traced.len()
    }

    pub fn traced(&self) -> usize {
        self.traced.len()
    }

    /// The run's values: medians over the untraced units and, when some
    /// units were traced, the layer values (medians over the traced units),
    /// the work counts and the tracing overhead.
    pub fn values(&self) -> Values {
        let mut values = medians(&self.plain);
        if self.traced.is_empty() {
            return values;
        }
        let layer = medians(&self.traced);
        if !self.plain.is_empty() {
            let change = |name: &str| (layer[name] - values[name]) / values[name];
            let overhead = [
                ("tracing.events_per_s_overhead", -change("events_per_s")),
                ("tracing.reconfig_p50_overhead", change("reconfig_p50_us")),
            ];
            values.extend(overhead);
        }
        values.extend(self.counts.clone().unwrap_or_default());
        for (name, value) in layer {
            values.entry(name).or_insert(value);
        }
        values
    }
}

/// Runs `unit(i)` for `i = 0, 1, …` until `seconds` have elapsed. Another
/// unit starts only while the longest one so far still fits in what is left
/// of the budget, so a run ends close to `seconds`; at least `min_units` run.
/// Returns the number of units run.
pub fn run_for(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    let mut units = 0;
    while units < min_units || started.elapsed() + longest <= budget {
        let t = Instant::now();
        unit(units)?;
        longest = longest.max(t.elapsed());
        units += 1;
    }
    Ok(units)
}

/// 64-bit FNV-1a, the digest the replay output checks pin.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A deterministic generator for the benchmark's own seeded choices
/// (SplitMix64).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Peak resident set size of this process in MiB: `VmHWM` of
/// `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// memory of whatever process exec'd this one, such as `cargo run`.)
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut [], 50.0), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
