//! The run's result: metrics, output checks, operation counts, and the
//! environment stamp, printed as JSON lines with the result object last.

use std::fmt::Write as _;

use crate::Args;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

#[derive(Default)]
pub struct Report {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    /// Extra JSON fields for the stamp line: digests, sample counts,
    /// spreads.
    info: Vec<(String, String)>,
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values are not JSON and become `null` (the
/// run's checks fail on them separately).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl Report {
    pub fn extend(&mut self, ms: impl IntoIterator<Item = Metric>) {
        self.metrics.extend(ms);
    }

    /// Record an output check. A failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Attach a JSON value to the stamp line.
    pub fn info(&mut self, key: &str, json: impl Into<String>) {
        self.info.push((key.to_string(), json.into()));
    }

    /// Check that the metrics are exactly `names`, each once: the set
    /// `BENCHMARK.json` lists for this kind of run.
    pub fn expect_metrics(&mut self, names: &[&str]) {
        let got: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        let missing: Vec<&str> = names.iter().copied().filter(|n| !got.contains(n)).collect();
        let mut extra: Vec<&str> = got.iter().copied().filter(|n| !names.contains(n)).collect();
        for (i, n) in got.iter().enumerate() {
            if got[..i].contains(n) {
                extra.push(n);
            }
        }
        let ok = missing.is_empty() && extra.is_empty();
        if !ok {
            eprintln!(
                "perfbench: metrics differ from the manifest: missing {missing:?}, extra {extra:?}"
            );
        }
        self.check("metrics-match-manifest", ok, format!("missing {missing:?}, extra {extra:?}"));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Print the stamp line, then the result object as the last line.
    pub fn print(&self, args: &Args) {
        let mut stamp = String::from("{");
        let _ = write!(
            stamp,
            "\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\"nproc\":{},\
             \"git_rev\":{},\"source_fnv\":{},\"rustc\":{}",
            quote(&args.workload),
            args.seed,
            args.seconds,
            args.trace,
            crate::SCALE,
            nproc(),
            quote(&git_rev()),
            quote(&format!("{:016x}", source_digest())),
            quote(env!("PERFBENCH_RUSTC")),
        );
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(n, ok, d)| {
                format!("{{\"name\":{},\"ok\":{ok},\"detail\":{}}}", quote(n), quote(d))
            })
            .collect();
        let _ = write!(stamp, ",\"checks\":[{}]", checks.join(","));
        for (k, v) in &self.info {
            let _ = write!(stamp, ",{}:{v}", quote(k));
        }
        stamp.push('}');
        println!("{stamp}");

        let correct = self.correct();
        // A failed check fails every operation of the run.
        let failed = if correct { self.failed } else { self.attempted.max(1) };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            metrics.join(",")
        );
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The checkout's git revision, or `none` outside a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// fnv1a over the program's sources (`crates/`, the root manifest and
/// lock file), walked in sorted order: identifies the code measured when
/// the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    mcqa_util::fnv1a(&bytes)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_literals() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("ok", true, "");
        assert!(r.correct());
        r.check("bad", false, "mismatch");
        assert!(!r.correct());
        let mut r = Report::default();
        r.extend([metric("x", f64::INFINITY, "ms")]);
        assert!(!r.correct());
    }

    #[test]
    fn metrics_must_match_the_manifest_exactly() {
        let run = |names: &[&str]| {
            let mut r = Report::default();
            r.extend(names.iter().map(|n| metric(*n, 1.0, "s")));
            r.expect_metrics(&["a", "b"]);
            r.correct()
        };
        assert!(run(&["b", "a"]));
        assert!(!run(&["a"]), "a missing metric fails the run");
        assert!(!run(&["a", "b", "c"]), "an extra metric fails the run");
        assert!(!run(&["a", "b", "b"]), "a repeated metric fails the run");
    }
}
