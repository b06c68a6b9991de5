//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method, which extrapolates for tiny samples), so a
//! spread computed by a script from this tool's output matches the one
//! printed here.

/// Minimum, first quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub n: usize,
}

/// Summarizes `values`; `None` for an empty sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    match n {
        0 => None,
        1 => Some(Summary {
            min: d[0],
            p25: d[0],
            median: d[0],
            p75: d[0],
            n,
        }),
        _ => {
            let q = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            Some(Summary {
                min: d[0],
                p25: q(1),
                median: q(2),
                p75: q(3),
                n,
            })
        }
    }
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    summarize(values).map(|s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected values from CPython's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python() {
        let cases: [(&[f64], [f64; 3]); 4] = [
            (
                &[3.0, 1.0, 2.0, 5.0, 4.0, 9.0, 7.0, 6.0, 8.0, 10.0],
                [2.75, 5.5, 8.25],
            ),
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
            (&[2.5, 1.5, 9.0], [1.5, 2.5, 9.0]),
            (&[0.78, 1.34, 0.9, 1.1, 0.95, 1.02, 0.88], [0.88, 0.95, 1.1]),
        ];
        for (values, [p25, median, p75]) in cases {
            let s = summarize(values).expect("non-empty");
            assert!((s.p25 - p25).abs() < 1e-12, "{values:?}: p25 {}", s.p25);
            assert!((s.median - median).abs() < 1e-12, "{values:?}: median");
            assert!((s.p75 - p75).abs() < 1e-12, "{values:?}: p75 {}", s.p75);
            assert_eq!(s.n, values.len());
            assert_eq!(s.min, values.iter().copied().fold(f64::INFINITY, f64::min));
        }
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(summarize(&[]), None);
        let one = summarize(&[4.0]).expect("one value");
        assert_eq!((one.p25, one.median, one.p75), (4.0, 4.0, 4.0));
        assert_eq!(median(&[2.0, 1.0, 3.0, 10.0]), Some(2.5));
        let s = summarize(&[1.0, 1.0, 1.0, 1.0]).expect("flat");
        assert_eq!((s.p25, s.p75), (1.0, 1.0));
    }
}
