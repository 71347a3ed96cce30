//! Result reporting: aligned text tables for stdout plus JSON archival.

use edgeswitch_json::{json, Json};
use std::fs;
use std::path::Path;

/// A printable, archivable experiment result.
pub struct Report {
    /// Experiment id, e.g. `"fig4"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Structured result series.
    pub data: Json,
    /// Rendered text table(s).
    pub rendered: String,
}

impl Report {
    /// Print to stdout.
    pub fn print(&self) {
        println!("==== {} — {} ====", self.id, self.title);
        println!("{}", self.rendered);
    }

    /// Write `<out>/<id>.json` (structured) and `<out>/<id>.txt`
    /// (rendered).
    pub fn save(&self, out: &Path) -> std::io::Result<()> {
        fs::create_dir_all(out)?;
        fs::write(
            out.join(format!("{}.json", self.id)),
            self.data.to_json_pretty(),
        )?;
        fs::write(
            out.join(format!("{}.txt", self.id)),
            format!("{} — {}\n\n{}", self.id, self.title, self.rendered),
        )
    }
}

/// Render an aligned table: `header` row then `rows`, columns padded to
/// the widest cell.
pub fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut width = vec![0usize; cols];
    for (i, h) in header.iter().enumerate() {
        width[i] = h.chars().count();
    }
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], width: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = width[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&head, &width));
    out.push('\n');
    out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &width));
        out.push('\n');
    }
    out
}

/// Format a float with `d` decimals.
pub fn f(x: f64, d: usize) -> String {
    format!("{:.*}", d, x)
}

/// Peak resident set size (high-water mark) of the **current process**,
/// in KiB, read from `VmHWM` in `/proc/self/status`. `None` where that
/// file does not exist (non-Linux).
///
/// VmHWM is monotone over the process lifetime, so a case measured in a
/// long-lived process reports the maximum over everything run so far —
/// experiments that need per-case peaks (`repro genscale`) run each case
/// in a fresh child process.
pub fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok();
        }
    }
    None
}

/// Build provenance stamped into every `BENCH_*.json` archive: the
/// compiler that produced the numbers and the `[profile.release]` flags
/// it was built under, so archived trajectories stay interpretable
/// across toolchain bumps and profile changes.
pub fn provenance() -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    json!({
        "rustc": rustc,
        "profile_release": release_profile(),
    })
}

/// The `[profile.release]` key/value lines of the workspace manifest,
/// captured at compile time (comments stripped).
fn release_profile() -> Vec<String> {
    let manifest = include_str!("../../../Cargo.toml");
    let mut flags = Vec::new();
    let mut in_section = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_section = line == "[profile.release]";
            continue;
        }
        if in_section && !line.is_empty() && !line.starts_with('#') {
            flags.push(line.to_string());
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["p", "speedup"],
            &[
                vec!["16".into(), "3.1".into()],
                vec!["1024".into(), "110.2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines[0].contains("speedup"));
        assert!(lines[2].trim_start().starts_with("16"));
        assert!(lines[3].trim_start().starts_with("1024"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn table_rejects_ragged_rows() {
        table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn float_format() {
        assert_eq!(f(1.23456, 2), "1.23");
    }

    #[test]
    fn peak_rss_reads_vm_hwm_on_linux() {
        match peak_rss_kb() {
            Some(kb) => assert!(kb > 0, "a running process has nonzero peak RSS"),
            None if cfg!(target_os = "linux") => panic!("VmHWM must be readable on Linux"),
            None => {}
        }
    }

    #[test]
    fn provenance_reports_compiler_and_profile() {
        let p = provenance();
        assert!(!p["rustc"].as_str().unwrap().is_empty());
        let flags = p["profile_release"].as_arr().unwrap();
        assert!(
            flags.iter().any(|l| l.as_str().unwrap().starts_with("lto")),
            "release profile flags not captured: {flags:?}"
        );
    }
}
