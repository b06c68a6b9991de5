//! The metrics registry: monotonic counters, gauges, and log-linear
//! histograms, all keyed by `&'static str` names so recording never
//! allocates for the key and snapshots iterate in a deterministic
//! (lexicographic) order.

use std::collections::BTreeMap;

use hpage_obs::json::esc;

/// A log-linear histogram of `u64` samples.
///
/// Buckets grow geometrically (powers of two) but each power-of-two
/// decade is split into 4 linear sub-buckets, so relative error is
/// bounded at ~25% while the whole value range 0..2^63 fits in ~252
/// buckets. This is the same shape HdrHistogram and the kernel's
/// `blk-stat` use; here it is hand-rolled because the build is offline.
///
/// Values 0–3 get exact buckets; from 4 up, a value with most
/// significant bit `m` lands in bucket `(m-1)*4 + ((v >> (m-2)) & 3)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for a value (see type docs for the math).
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < 4 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - 2)) & 3) as usize;
        (msb - 1) * 4 + sub
    }
}

/// Inclusive lower bound of bucket `i` (the smallest value mapping to it).
fn bucket_lower_bound(i: usize) -> u64 {
    if i < 4 {
        i as u64
    } else {
        let msb = i / 4 + 1;
        let sub = (i % 4) as u64;
        (1u64 << msb) + (sub << (msb - 2))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        let b = bucket_of(v);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the lower bound of the
    /// bucket holding the `ceil(q * count)`-th sample. Exact for values
    /// < 4, within ~25% above.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_lower_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
            .collect()
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// All maps are `BTreeMap` so every rendering (text or JSONL) iterates
/// in lexicographic name order — snapshots of a deterministic run are
/// byte-stable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counter `name` by 1.
    #[inline]
    pub fn inc(&mut self, name: &'static str) {
        *self.counters.entry(name).or_insert(0) += 1;
    }

    /// Increments counter `name` by `delta`.
    #[inline]
    pub fn inc_by(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets gauge `name` to `value` (last write wins).
    #[inline]
    pub fn set_gauge(&mut self, name: &'static str, value: u64) {
        self.gauges.insert(name, value);
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry as aligned text, one metric per line,
    /// sorted by name within each section.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name}  count={} sum={} min={} p50={} p99={} max={}\n",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                ));
            }
        }
        out
    }

    /// Renders the registry as JSON Lines: one record per metric, with
    /// a `"metric"` discriminator, sorted by section then name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"metric\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                esc(name)
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"metric\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}\n",
                esc(name)
            ));
        }
        for (name, h) in &self.histograms {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(lb, c)| format!("[{lb},{c}]"))
                .collect();
            out.push_str(&format!(
                "{{\"metric\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"buckets\":[{}]}}\n",
                esc(name),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                buckets.join(",")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpage_obs::json::assert_json_shape;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..4u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        // The first log-linear decade continues contiguously: 4..8 map
        // to buckets 4..8 exactly (msb=2, stride 1).
        for v in 4..8u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
        assert_eq!(bucket_of(8), 8);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every bucket's lower bound maps back to that bucket, and
        // bounds strictly increase.
        let mut prev = None;
        for i in 0..200 {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_of(lb), i, "lower bound {lb} of bucket {i}");
            if let Some(p) = prev {
                assert!(lb > p);
            }
            prev = Some(lb);
        }
        // Extremes don't panic.
        let _ = bucket_of(u64::MAX);
        assert_eq!(bucket_of(u64::MAX), bucket_of(u64::MAX - 1));
    }

    #[test]
    fn histogram_tracks_stats_and_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 3);
        assert!(
            h.quantile(1.0) >= 768,
            "p100 ~ max, got {}",
            h.quantile(1.0)
        );
        // Relative error bound: the p-estimate of a single-value
        // histogram is within 25% below the true value.
        let mut one = Histogram::new();
        one.observe(777);
        let est = one.quantile(0.5);
        assert!(est <= 777 && est as f64 >= 777.0 * 0.75, "est {est}");
    }

    #[test]
    fn registry_records_and_renders_deterministically() {
        let mut r = MetricsRegistry::new();
        r.inc("walk");
        r.inc_by("walk", 2);
        r.set_gauge("pcc_occupancy", 17);
        r.set_gauge("pcc_occupancy", 13); // last write wins
        r.observe("walk_cycles", 120);
        r.observe("walk_cycles", 60);
        assert_eq!(r.counter("walk"), 3);
        assert_eq!(r.gauge("pcc_occupancy"), Some(13));
        assert_eq!(r.histogram("walk_cycles").unwrap().count(), 2);
        assert_eq!(r.counter("never"), 0);
        let text = r.render_text();
        assert!(text.contains("walk"), "{text}");
        assert_eq!(text, r.render_text(), "text render is stable");
        for line in r.to_jsonl().lines() {
            assert_json_shape(line);
        }
    }
}
