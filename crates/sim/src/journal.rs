//! Section-level checkpoint/resume journal for long repro runs.
//!
//! A run can be interrupted hours in — by a crash, an OOM kill, or an
//! operator — and restarting every figure from scratch wastes everything
//! already computed. The journal is the fix: an append-only JSONL file
//! recording every completed *section* together with its fully rendered
//! output. `repro --resume <journal>` replays the stored section text
//! verbatim and re-runs only the sections that are missing, so a resumed
//! run's stdout is byte-identical to an uninterrupted one.
//!
//! Wire format (one JSON object per line):
//!
//! ```text
//! {"journal":"hpage-repro","version":2,"profile":"test","scale":"both"}
//! {"type":"section","label":"figure 7","output":"...escaped full text..."}
//! ```
//!
//! The header pins the profile and scale so a journal recorded under
//! `HPAGE_PROFILE=test` cannot silently poison a paper-scale run.
//! Version 1 journals also held per-cell records that resume never
//! read; this build refuses them rather than half-read them.
//! Resume tolerates a truncated or corrupt *trailing* region — the
//! expected wreckage of an interrupt mid-write — by skipping unparseable
//! lines and counting them. Writes flush per line so the journal is as
//! current as the last completed section.

use hpage_faults::json::{parse, Value};
use hpage_obs::json::esc;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};

/// Magic string identifying a journal file.
const MAGIC: &str = "hpage-repro";
/// Current wire-format version.
const VERSION: u64 = 2;

/// Why [`CellJournal::resume`] refused a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The file could not be read or reopened for append.
    Io(String),
    /// The file is not a journal this run may resume: an empty file, a
    /// header that is not JSON, the wrong magic or version, or a
    /// profile/scale other than this run's.
    Invalid(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(msg) | JournalError::Invalid(msg) => f.write_str(msg),
        }
    }
}

/// An append-only journal of completed sections.
#[derive(Debug)]
pub struct CellJournal {
    path: String,
    writer: BufWriter<File>,
    sections_done: BTreeMap<String, String>,
    skipped_lines: u64,
}

impl CellJournal {
    /// Creates (truncating) a fresh journal at `path` and writes the
    /// header pinning `profile` and `scale`.
    pub fn create(path: &str, profile: &str, scale: &str) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut writer = BufWriter::new(file);
        writeln!(
            writer,
            "{{\"journal\":\"{MAGIC}\",\"version\":{VERSION},\"profile\":\"{}\",\"scale\":\"{}\"}}",
            esc(profile),
            esc(scale)
        )?;
        writer.flush()?;
        Ok(CellJournal {
            path: path.to_string(),
            writer,
            sections_done: BTreeMap::new(),
            skipped_lines: 0,
        })
    }

    /// Reopens an existing journal for resume: parses every line,
    /// validates the header against `profile` and `scale`, loads the
    /// completed sections, and reopens the file in append mode. Corrupt
    /// or truncated lines after the header are skipped and counted
    /// ([`skipped_lines`](Self::skipped_lines)), not fatal — an
    /// interrupt mid-write is exactly the case resume exists for.
    pub fn resume(path: &str, profile: &str, scale: &str) -> Result<Self, JournalError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| JournalError::Io(format!("journal {path}: cannot read: {e}")))?;
        let invalid = |what: String| JournalError::Invalid(format!("journal {path}: {what}"));
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| invalid("empty file".into()))?;
        let header = parse(header).map_err(|e| invalid(format!("bad header: {e}")))?;
        let header = header
            .as_object()
            .ok_or_else(|| invalid("header is not an object".into()))?;
        let field = |key: &str| -> Result<&str, JournalError> {
            header
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| invalid(format!("header missing \"{key}\"")))
        };
        if field("journal")? != MAGIC {
            return Err(invalid(format!("not an {MAGIC} journal")));
        }
        let version = header
            .get("version")
            .and_then(Value::as_uint)
            .ok_or_else(|| invalid("header missing \"version\"".into()))?;
        if version != VERSION {
            return Err(invalid(format!(
                "version {version} (this build reads {VERSION})"
            )));
        }
        let (j_profile, j_scale) = (field("profile")?, field("scale")?);
        if j_profile != profile || j_scale != scale {
            return Err(invalid(format!(
                "recorded under profile={j_profile} scale={j_scale}, \
                 but this run is profile={profile} scale={scale}"
            )));
        }

        let mut sections_done = BTreeMap::new();
        let mut skipped = 0u64;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            match Self::parse_section(line) {
                Some((label, output)) => {
                    sections_done.insert(label, output);
                }
                None => skipped += 1,
            }
        }

        let file = OpenOptions::new().append(true).open(path).map_err(|e| {
            JournalError::Io(format!("journal {path}: cannot reopen for append: {e}"))
        })?;
        Ok(CellJournal {
            path: path.to_string(),
            writer: BufWriter::new(file),
            sections_done,
            skipped_lines: skipped,
        })
    }

    /// One section record as `(label, output)`, or `None` for any
    /// other line.
    fn parse_section(line: &str) -> Option<(String, String)> {
        let v = parse(line).ok()?;
        let obj = v.as_object()?;
        if obj.get("type")?.as_str()? != "section" {
            return None;
        }
        Some((
            obj.get("label")?.as_str()?.to_string(),
            obj.get("output")?.as_str()?.to_string(),
        ))
    }

    /// The journal's file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Lines skipped as corrupt/truncated during [`resume`](Self::resume).
    pub fn skipped_lines(&self) -> u64 {
        self.skipped_lines
    }

    /// The stored output of a completed section, if any.
    pub fn completed_section(&self, label: &str) -> Option<String> {
        self.sections_done.get(label).cloned()
    }

    /// Number of completed sections on record.
    pub fn completed_sections(&self) -> usize {
        self.sections_done.len()
    }

    /// Records one completed section with its fully rendered output.
    /// Flushes so an interrupt right after loses nothing.
    pub fn record_section(&mut self, label: &str, output: &str) -> std::io::Result<()> {
        writeln!(
            self.writer,
            "{{\"type\":\"section\",\"label\":\"{}\",\"output\":\"{}\"}}",
            esc(label),
            esc(output)
        )?;
        self.writer.flush()?;
        self.sections_done
            .insert(label.to_string(), output.to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> String {
        let dir = std::env::temp_dir();
        dir.join(format!("hpage-journal-{}-{tag}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn create_resume_round_trip() {
        let path = temp_path("roundtrip");
        {
            let mut j = CellJournal::create(&path, "test", "both").unwrap();
            j.record_section("figure 7", "fig7 header\nrow a | 1.0\n")
                .unwrap();
        }
        let mut j = CellJournal::resume(&path, "test", "both").unwrap();
        assert_eq!(j.skipped_lines(), 0);
        assert_eq!(
            j.completed_section("figure 7").as_deref(),
            Some("fig7 header\nrow a | 1.0\n")
        );
        assert_eq!(j.completed_section("figure 8"), None);
        // Appends after resume land in the same file.
        j.record_section("figure 8", "fig8\n").unwrap();
        let again = CellJournal::resume(&path, "test", "both").unwrap();
        assert_eq!(again.completed_sections(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_tolerates_truncated_tail() {
        let path = temp_path("truncated");
        {
            let mut j = CellJournal::create(&path, "test", "both").unwrap();
            j.record_section("figure 1", "ok output\n").unwrap();
        }
        // Emulate an interrupt mid-write: a half line at the end.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"type\":\"section\",\"label\":\"fig").unwrap();
        }
        let j = CellJournal::resume(&path, "test", "both").unwrap();
        assert_eq!(j.skipped_lines(), 1);
        assert_eq!(j.completed_sections(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_skips_a_line_nested_too_deep() {
        let path = temp_path("deep");
        {
            let mut j = CellJournal::create(&path, "test", "both").unwrap();
            j.record_section("figure 1", "ok output\n").unwrap();
        }
        // Deep enough to overflow the stack of an unbounded recursive
        // parser.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            writeln!(f, "{}{}", "[".repeat(30_000), "]".repeat(30_000)).unwrap();
        }
        let j = CellJournal::resume(&path, "test", "both").unwrap();
        assert_eq!(j.skipped_lines(), 1);
        assert_eq!(j.completed_sections(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_profile_mismatch_and_junk() {
        let path = temp_path("mismatch");
        {
            let _ = CellJournal::create(&path, "test", "both").unwrap();
        }
        let invalid = |profile: &str, scale: &str| match CellJournal::resume(&path, profile, scale)
        {
            Err(JournalError::Invalid(msg)) => msg,
            other => panic!("want an invalid-journal error, got {other:?}"),
        };
        assert!(invalid("paper", "both").contains("profile=test"));
        assert!(invalid("test", "graph").contains("scale="));
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(invalid("test", "both").contains("bad header"));
        std::fs::write(
            &path,
            "{\"journal\":\"hpage-repro\",\"version\":1,\"profile\":\"test\",\"scale\":\"both\"}\n",
        )
        .unwrap();
        assert!(invalid("test", "both").contains("version 1 (this build reads 2)"));
        std::fs::write(&path, "").unwrap();
        assert!(invalid("test", "both").contains("empty"));
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            CellJournal::resume(&path, "test", "both"),
            Err(JournalError::Io(_))
        ));
    }

    #[test]
    fn section_output_escaping_round_trips() {
        let path = temp_path("escape");
        let gnarly = "tab\there \"quoted\" back\\slash\nline2 \u{1F600}\n";
        {
            let mut j = CellJournal::create(&path, "test", "both").unwrap();
            j.record_section("weird", gnarly).unwrap();
        }
        let j = CellJournal::resume(&path, "test", "both").unwrap();
        assert_eq!(j.completed_section("weird").as_deref(), Some(gnarly));
        let _ = std::fs::remove_file(&path);
    }
}
