//! Performance-utility curves (the paper's Fig. 5/8/9 data structure).

/// One point of a utility curve: performance when huge pages are limited
/// to `percent`% of the application footprint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilityPoint {
    /// Percent of the footprint backed by huge pages (0, 1, 2, 4, …, 64,
    /// 100 in the paper's sweeps).
    pub percent: u64,
    /// Speedup over the 4 KiB baseline.
    pub speedup: f64,
    /// Page-table-walk rate (fraction of accesses) at this point.
    pub walk_ratio: f64,
    /// Huge pages actually promoted/allocated at this point.
    pub huge_pages_used: u64,
}

/// A labelled utility curve for one app under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityCurve {
    /// Application name.
    pub app: String,
    /// Policy name ("pcc", "hawkeye", …).
    pub policy: String,
    /// Points in ascending `percent` order.
    pub points: Vec<UtilityPoint>,
}

impl UtilityCurve {
    /// The paper's sweep of footprint percentages.
    pub const PAPER_SWEEP: [u64; 9] = [0, 1, 2, 4, 8, 16, 32, 64, 100];

    /// Creates an empty curve.
    pub fn new(app: impl Into<String>, policy: impl Into<String>) -> Self {
        UtilityCurve {
            app: app.into(),
            policy: policy.into(),
            points: Vec::new(),
        }
    }

    /// The speedup at `percent`, if measured.
    pub fn speedup_at(&self, percent: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.percent == percent)
            .map(|p| p.speedup)
    }
}

/// Geometric mean of a nonempty slice; returns `None` when empty or any
/// value is non-positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Result of [`geomean_positive`]: the geometric mean over the usable
/// (strictly positive, finite) subset of the input, plus how much was
/// excluded to get it.
///
/// [`geomean`]'s all-or-nothing contract is right for math but wrong
/// for report rendering: one non-positive speedup (e.g. a degenerate
/// cell at test scale) used to blank an entire figure's geomean row.
/// Renderers use this variant instead and surface `excluded` to the
/// reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeomeanSummary {
    /// Geomean over the usable values; `None` when none were usable.
    pub value: Option<f64>,
    /// Values that contributed.
    pub used: usize,
    /// Non-positive or non-finite values that had to be excluded.
    pub excluded: usize,
}

impl GeomeanSummary {
    /// Whether anything had to be excluded.
    pub fn is_partial(&self) -> bool {
        self.excluded > 0
    }
}

/// Geometric mean over the strictly positive, finite subset of
/// `values`, reporting how many values were excluded.
pub fn geomean_positive(values: &[f64]) -> GeomeanSummary {
    let usable: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| *v > 0.0 && v.is_finite())
        .collect();
    GeomeanSummary {
        value: geomean(&usable),
        used: usable.len(),
        excluded: values.len() - usable.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> UtilityCurve {
        let mut c = UtilityCurve::new("BFS", "pcc");
        for (pct, s) in [
            (0u64, 1.0),
            (1, 1.15),
            (2, 1.22),
            (4, 1.28),
            (8, 1.30),
            (100, 1.32),
        ] {
            c.points.push(UtilityPoint {
                percent: pct,
                speedup: s,
                walk_ratio: 0.1,
                huge_pages_used: pct,
            });
        }
        c
    }

    #[test]
    fn speedup_lookup() {
        let c = curve();
        assert_eq!(c.speedup_at(4), Some(1.28));
        assert_eq!(c.speedup_at(3), None);
    }

    #[test]
    fn geomean_math() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[2.0, 0.0]), None);
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[1.3]).unwrap();
        assert!((g - 1.3).abs() < 1e-12);
    }

    #[test]
    fn geomean_positive_excludes_rather_than_blanks() {
        let s = geomean_positive(&[2.0, 0.0, 8.0, -1.0, f64::NAN]);
        assert_eq!(s.used, 2);
        assert_eq!(s.excluded, 3);
        assert!(s.is_partial());
        assert!((s.value.unwrap() - 4.0).abs() < 1e-12);
        // Clean input matches the strict geomean exactly.
        let clean = geomean_positive(&[1.0, 4.0]);
        assert_eq!(clean.value, geomean(&[1.0, 4.0]));
        assert!(!clean.is_partial());
        // Nothing usable: value is None but the counts still report why.
        let none = geomean_positive(&[0.0, -2.0]);
        assert_eq!(none.value, None);
        assert_eq!(none.excluded, 2);
    }

    #[test]
    fn paper_sweep_values() {
        assert_eq!(UtilityCurve::PAPER_SWEEP.len(), 9);
        assert_eq!(UtilityCurve::PAPER_SWEEP[0], 0);
        assert_eq!(*UtilityCurve::PAPER_SWEEP.last().unwrap(), 100);
    }
}
