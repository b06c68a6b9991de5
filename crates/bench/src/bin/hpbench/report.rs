//! Metrics as printed, as parsed back from a traced child's output, and
//! as written to the one-line JSON result and the `--out` record.

use std::fmt::Write as _;

use hpage_obs::json::esc;

use crate::stats::Summary;
use crate::workloads::WorkloadId;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// The sample `value` was taken from, if any.
    pub summary: Option<Summary>,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            summary: None,
        }
    }

    /// The median of a sample, keeping the sample's summary.
    pub fn median(name: &str, summary: Summary, unit: &str) -> Metric {
        Metric {
            summary: Some(summary),
            ..Metric::new(name, summary.median, unit)
        }
    }

    /// The minimum of a sample, keeping the sample's summary.
    pub fn fastest(name: &str, summary: Summary, unit: &str) -> Metric {
        Metric {
            summary: Some(summary),
            ..Metric::new(name, summary.min, unit)
        }
    }

    /// The printed line: `<workload> <name> <value> <unit>`, then the
    /// sample's summary when the value comes from one. [`parse_line`]
    /// reads it back.
    pub fn line(&self, workload: &str) -> String {
        let mut s = format!(
            "{workload:<18} {:<28} {} {}",
            self.name,
            number(self.value),
            self.unit
        );
        if let Some(q) = self.summary {
            let _ = write!(
                s,
                "  (min {} p25 {} median {} p75 {} n {})",
                number(q.min),
                number(q.p25),
                number(q.median),
                number(q.p75),
                q.n
            );
        }
        s
    }

    fn json(&self, with_summary: bool) -> String {
        let mut s = format!(
            "{{\"value\":{},\"unit\":\"{}\"",
            number(self.value),
            esc(&self.unit)
        );
        if let (true, Some(q)) = (with_summary, self.summary) {
            let _ = write!(
                s,
                ",\"min\":{},\"p25\":{},\"median\":{},\"p75\":{},\"n\":{}",
                number(q.min),
                number(q.p25),
                number(q.median),
                number(q.p75),
                q.n
            );
        }
        s.push('}');
        s
    }
}

/// A value with every digit it has (`{}` of an `f64` never uses an
/// exponent), or `null` for the non-finite values JSON cannot hold.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Reads a line printed by [`Metric::line`] for `workload`.
pub fn parse_line(line: &str, workload: &str) -> Option<Metric> {
    let mut tokens = line.split_whitespace();
    if tokens.next()? != workload {
        return None;
    }
    let name = tokens.next()?;
    let value: f64 = tokens.next()?.parse().ok()?;
    let unit = tokens.next()?;
    Some(Metric::new(name, value, unit))
}

/// Reads a whole-number field of the result line (`"attempted":12`).
pub fn result_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub id: WorkloadId,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl WorkloadReport {
    pub fn new(id: WorkloadId) -> WorkloadReport {
        WorkloadReport {
            id,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Records a failed check or run.
    pub fn fail(&mut self, problem: String) {
        eprintln!("hpbench: {}: {problem}", self.id.name());
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Failed runs over attempted runs.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The printed lines.
    pub fn lines(&self) -> Vec<String> {
        let name = self.id.name();
        let mut lines: Vec<String> = self
            .end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|m| m.line(name))
            .collect();
        lines.push(format!(
            "{name:<18} {:<28} {} ({} of {} runs failed)",
            "failed_frac",
            number(self.failed_frac()),
            self.failed,
            self.attempted
        ));
        lines
    }
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`. One workload's metrics keep their names; with several,
/// each name is prefixed by `<workload>/`.
pub fn result_line(reports: &[WorkloadReport], traced: bool) -> String {
    let correct = reports.iter().all(WorkloadReport::ok);
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in reports {
        let list = if traced { &r.per_layer } else { &r.end_to_end };
        for m in list {
            let key = if reports.len() == 1 {
                m.name.clone()
            } else {
                format!("{}/{}", r.id.name(), m.name)
            };
            metrics.push(format!("\"{}\":{}", esc(&key), m.json(false)));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// The `--out` record: the host fingerprint first, then every
/// workload's metrics with their quartiles, counts and problems.
pub fn record(host_json: &str, reports: &[WorkloadReport]) -> String {
    let workloads: Vec<String> = reports
        .iter()
        .map(|r| {
            let metrics = |list: &[Metric]| {
                list.iter()
                    .map(|m| format!("\"{}\":{}", esc(&m.name), m.json(true)))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let problems: Vec<String> = r
                .problems
                .iter()
                .map(|p| format!("\"{}\"", esc(p)))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"attempted\":{},\"failed\":{},\"failed_frac\":{},\
                 \"problems\":[{}],\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
                r.id.name(),
                r.attempted,
                r.failed,
                number(r.failed_frac()),
                problems.join(","),
                metrics(&r.end_to_end),
                metrics(&r.per_layer)
            )
        })
        .collect();
    format!(
        "{{\"host\":{host_json},\"correct\":{},\"workloads\":[{}]}}",
        reports.iter().all(WorkloadReport::ok),
        workloads.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn printed_lines_parse_back() {
        let m = Metric::median("wall_s", summarize(&[1.5, 1.25, 2.0]).unwrap(), "s");
        let line = m.line("bfs_pcc");
        assert!(
            line.ends_with("(min 1.25 p25 1.25 median 1.5 p75 2 n 3)"),
            "{line}"
        );
        let back = parse_line(&line, "bfs_pcc").expect("parses");
        assert_eq!((back.name.as_str(), back.value), ("wall_s", 1.5));
        assert_eq!(back.unit, "s");
        assert_eq!(parse_line(&line, "fig7_j2"), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = WorkloadReport::new(WorkloadId::BfsPcc);
        r.attempted = 4;
        r.end_to_end.push(Metric::new("setup_s", 0.8127, "s"));
        let line = result_line(std::slice::from_ref(&r), false);
        hpage_obs::json::assert_json_shape(&line);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        assert_eq!(result_field(&line, "attempted"), Some(4));
        assert_eq!(result_field(&line, "failed"), Some(0));
        let mut two = vec![r.clone(), r];
        two[1].id = WorkloadId::Fig7J2;
        two[1].fail("digest".into());
        let line = result_line(&two, false);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":8,\"failed\":1,"));
        assert!(line.contains("\"fig7_j2/setup_s\""));
    }

    #[test]
    fn record_starts_with_the_host() {
        let r = WorkloadReport::new(WorkloadId::Mix4St2);
        let rec = record("{\"cpu\":\"x\"}", &[r]);
        hpage_obs::json::assert_json_shape(&rec);
        assert!(rec.starts_with("{\"host\":{\"cpu\":\"x\"},\"correct\":false,"));
    }
}
