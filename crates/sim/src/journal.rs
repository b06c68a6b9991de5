//! Cell-level checkpoint/resume journal for long repro runs.
//!
//! A supervised run can be interrupted hours in — by a crash, an OOM
//! kill, or an operator — and restarting the whole grid from scratch
//! wastes everything already computed. The journal is the fix: an
//! append-only JSONL file recording every completed cell (keyed by its
//! [`fingerprint`](crate::Cell::fingerprint)) and every completed
//! *section* together with its fully rendered output. `repro --resume
//! <journal>` replays the stored section text verbatim and re-runs only
//! what is missing, so a resumed run's stdout is byte-identical to an
//! uninterrupted one.
//!
//! Wire format (one JSON object per line):
//!
//! ```text
//! {"journal":"hpage-repro","version":1,"profile":"test","scale":"both"}
//! {"type":"cell","fp":"0x1b2e...","label":"fig7/BFS/pcc","attempts":1,"wall_ms":412}
//! {"type":"section","label":"figure 7","output":"...escaped full text..."}
//! ```
//!
//! The header pins the profile and scale so a journal recorded under
//! `HPAGE_PROFILE=test` cannot silently poison a paper-scale run.
//! Resume tolerates a truncated or corrupt *trailing* region — the
//! expected wreckage of an interrupt mid-write — by skipping unparseable
//! lines and counting them. Writes flush per line so the journal is as
//! current as the last completed cell.

use hpage_faults::json::{parse, Value};
use hpage_obs::json::esc;
use std::collections::{BTreeMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::sync::Mutex;

/// Magic string identifying a journal file.
const MAGIC: &str = "hpage-repro";
/// Current wire-format version.
const VERSION: u64 = 1;

/// An append-only journal of completed cells and sections.
///
/// Thread-safe: the supervised runner's workers record cells
/// concurrently; the driving binary records sections between grids.
#[derive(Debug)]
pub struct CellJournal {
    path: String,
    writer: Mutex<BufWriter<File>>,
    cells_done: Mutex<HashSet<u64>>,
    sections_done: Mutex<BTreeMap<String, String>>,
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
            writer: Mutex::new(writer),
            cells_done: Mutex::new(HashSet::new()),
            sections_done: Mutex::new(BTreeMap::new()),
            skipped_lines: 0,
        })
    }

    /// Reopens an existing journal for resume: parses every line,
    /// validates the header against `profile` and `scale`, loads the
    /// completed-cell and completed-section sets, and reopens the file
    /// in append mode. Corrupt or truncated lines are skipped and
    /// counted ([`skipped_lines`](Self::skipped_lines)), not fatal —
    /// an interrupt mid-write is exactly the case resume exists for.
    pub fn resume(path: &str, profile: &str, scale: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("journal {path}: cannot read: {e}"))?;
        let mut lines = text.lines();
        let header = lines
            .next()
            .ok_or_else(|| format!("journal {path}: empty file"))?;
        let header = parse(header).map_err(|e| format!("journal {path}: bad header: {e}"))?;
        let header = header
            .as_object()
            .ok_or_else(|| format!("journal {path}: header is not an object"))?;
        let field = |key: &str| -> Result<&str, String> {
            header
                .get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("journal {path}: header missing \"{key}\""))
        };
        if field("journal")? != MAGIC {
            return Err(format!("journal {path}: not an {MAGIC} journal"));
        }
        let version = header
            .get("version")
            .and_then(Value::as_uint)
            .ok_or_else(|| format!("journal {path}: header missing \"version\""))?;
        if version != VERSION {
            return Err(format!(
                "journal {path}: version {version} (this build reads {VERSION})"
            ));
        }
        let (j_profile, j_scale) = (field("profile")?, field("scale")?);
        if j_profile != profile || j_scale != scale {
            return Err(format!(
                "journal {path}: recorded under profile={j_profile} scale={j_scale}, \
                 but this run is profile={profile} scale={scale}"
            ));
        }

        let mut cells_done = HashSet::new();
        let mut sections_done = BTreeMap::new();
        let mut skipped = 0u64;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            match Self::parse_entry(line) {
                Some(Entry::Cell(fp)) => {
                    cells_done.insert(fp);
                }
                Some(Entry::Section { label, output }) => {
                    sections_done.insert(label, output);
                }
                None => skipped += 1,
            }
        }

        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("journal {path}: cannot reopen for append: {e}"))?;
        Ok(CellJournal {
            path: path.to_string(),
            writer: Mutex::new(BufWriter::new(file)),
            cells_done: Mutex::new(cells_done),
            sections_done: Mutex::new(sections_done),
            skipped_lines: skipped,
        })
    }

    fn parse_entry(line: &str) -> Option<Entry> {
        let v = parse(line).ok()?;
        let obj = v.as_object()?;
        match obj.get("type")?.as_str()? {
            "cell" => {
                let fp = obj.get("fp")?.as_str()?;
                let fp = fp.strip_prefix("0x")?;
                Some(Entry::Cell(u64::from_str_radix(fp, 16).ok()?))
            }
            "section" => Some(Entry::Section {
                label: obj.get("label")?.as_str()?.to_string(),
                output: obj.get("output")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }

    /// The journal's file path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Lines skipped as corrupt/truncated during [`resume`](Self::resume).
    pub fn skipped_lines(&self) -> u64 {
        self.skipped_lines
    }

    /// Number of completed cells on record.
    pub fn completed_cells(&self) -> usize {
        self.cells_done.lock().unwrap().len()
    }

    /// Whether a cell with this fingerprint already completed.
    pub fn cell_is_done(&self, fingerprint: u64) -> bool {
        self.cells_done.lock().unwrap().contains(&fingerprint)
    }

    /// The stored output of a completed section, if any.
    pub fn completed_section(&self, label: &str) -> Option<String> {
        self.sections_done.lock().unwrap().get(label).cloned()
    }

    /// Number of completed sections on record.
    pub fn completed_sections(&self) -> usize {
        self.sections_done.lock().unwrap().len()
    }

    /// Records one completed cell. Flushes so an interrupt right after
    /// loses nothing.
    pub fn record_cell(
        &self,
        fingerprint: u64,
        label: &str,
        attempts: u32,
        wall_ms: u64,
    ) -> std::io::Result<()> {
        {
            let mut w = self.writer.lock().unwrap();
            writeln!(
                w,
                "{{\"type\":\"cell\",\"fp\":\"{fingerprint:#018x}\",\"label\":\"{}\",\
                 \"attempts\":{attempts},\"wall_ms\":{wall_ms}}}",
                esc(label)
            )?;
            w.flush()?;
        }
        self.cells_done.lock().unwrap().insert(fingerprint);
        Ok(())
    }

    /// Records one completed section with its fully rendered output.
    pub fn record_section(&self, label: &str, output: &str) -> std::io::Result<()> {
        {
            let mut w = self.writer.lock().unwrap();
            writeln!(
                w,
                "{{\"type\":\"section\",\"label\":\"{}\",\"output\":\"{}\"}}",
                esc(label),
                esc(output)
            )?;
            w.flush()?;
        }
        self.sections_done
            .lock()
            .unwrap()
            .insert(label.to_string(), output.to_string());
        Ok(())
    }
}

enum Entry {
    Cell(u64),
    Section { label: String, output: String },
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
            let j = CellJournal::create(&path, "test", "both").unwrap();
            j.record_cell(0xDEAD_BEEF, "fig7/BFS/pcc", 2, 412).unwrap();
            j.record_section("figure 7", "fig7 header\nrow a | 1.0\n")
                .unwrap();
        }
        let j = CellJournal::resume(&path, "test", "both").unwrap();
        assert_eq!(j.skipped_lines(), 0);
        assert!(j.cell_is_done(0xDEAD_BEEF));
        assert!(!j.cell_is_done(0xDEAD_BEF0));
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
            let j = CellJournal::create(&path, "test", "both").unwrap();
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
            let j = CellJournal::create(&path, "test", "both").unwrap();
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
        assert!(CellJournal::resume(&path, "paper", "both")
            .unwrap_err()
            .contains("profile=test"));
        assert!(CellJournal::resume(&path, "test", "graph").is_err());
        std::fs::write(&path, "not a journal\n").unwrap();
        assert!(CellJournal::resume(&path, "test", "both").is_err());
        std::fs::write(&path, "").unwrap();
        assert!(CellJournal::resume(&path, "test", "both")
            .unwrap_err()
            .contains("empty"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn section_output_escaping_round_trips() {
        let path = temp_path("escape");
        let gnarly = "tab\there \"quoted\" back\\slash\nline2 \u{1F600}\n";
        {
            let j = CellJournal::create(&path, "test", "both").unwrap();
            j.record_section("weird", gnarly).unwrap();
        }
        let j = CellJournal::resume(&path, "test", "both").unwrap();
        assert_eq!(j.completed_section("weird").as_deref(), Some(gnarly));
        let _ = std::fs::remove_file(&path);
    }
}
