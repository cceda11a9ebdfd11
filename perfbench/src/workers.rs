//! Worker processes of an untraced run.
//!
//! On a shared virtual machine a process keeps the speed it starts with:
//! passes in one process run within a few percent of each other, while
//! back-to-back processes on the same inputs differ by up to 40%. An
//! untraced run therefore spreads its passes over several short worker
//! processes, started one after another, so that its medians
//! samples several of them rather than one.
//!
//! A worker is this binary run as `perfbench worker <run flags>
//! --first-pass k`. It reports on standard output, one tab-separated
//! record a line, in the format [`Report::render`] writes.

use crate::stats::Tally;
use std::path::Path;
use std::process::{Command, Stdio};

/// What one untraced pass contributes to the end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTimes {
    /// Host seconds for the pass.
    pub wall_s: f64,
    /// Host seconds of set-up within the pass.
    pub setup_s: f64,
    /// Work items the pass checked.
    pub items: u64,
}

/// A worker's passes, cell tally, problems and peak memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Passes in the order they ran.
    pub passes: Vec<PassTimes>,
    /// Cells run and failed.
    pub tally: Tally,
    /// Why cells failed.
    pub problems: Vec<String>,
    /// The worker's `VmHWM` in MiB, if it could read it.
    pub rss_mib: Option<f64>,
}

impl Report {
    /// The report as lines of tab-separated fields.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for p in &self.passes {
            out += &format!("pass\t{}\t{}\t{}\n", p.wall_s, p.setup_s, p.items);
        }
        out += &format!("tally\t{}\t{}\n", self.tally.attempted, self.tally.failed);
        for why in &self.problems {
            out += &format!("problem\t{}\n", why.replace(['\t', '\n'], " "));
        }
        if let Some(mib) = self.rss_mib {
            out += &format!("rss\t{mib}\n");
        }
        out
    }

    /// Reads what [`Report::render`] wrote; refuses anything else, and a
    /// report without a tally or a pass.
    pub fn parse(text: &str) -> Result<Report, String> {
        fn num<T: std::str::FromStr>(field: Option<&str>, line: &str) -> Result<T, String> {
            field
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("bad worker line {line:?}"))
        }
        let mut r = Report::default();
        let mut tallied = false;
        for line in text.lines() {
            let mut f = line.split('\t');
            match f.next() {
                Some("pass") => r.passes.push(PassTimes {
                    wall_s: num(f.next(), line)?,
                    setup_s: num(f.next(), line)?,
                    items: num(f.next(), line)?,
                }),
                Some("tally") => {
                    r.tally = Tally {
                        attempted: num(f.next(), line)?,
                        failed: num(f.next(), line)?,
                    };
                    tallied = true;
                }
                Some("problem") => r.problems.push(f.by_ref().collect::<Vec<_>>().join(" ")),
                Some("rss") => r.rss_mib = Some(num(f.next(), line)?),
                _ => return Err(format!("bad worker line {line:?}")),
            }
            if f.next().is_some() {
                return Err(format!("bad worker line {line:?}"));
            }
        }
        if !tallied || r.passes.is_empty() {
            return Err("worker reported no pass".into());
        }
        Ok(r)
    }

    /// Adds `other`'s passes, cells and problems to this report; keeps the
    /// larger peak memory.
    pub fn merge(&mut self, other: Report) {
        self.passes.extend(other.passes);
        self.tally.attempted += other.tally.attempted;
        self.tally.failed += other.tally.failed;
        self.problems.extend(other.problems);
        self.rss_mib = match (self.rss_mib, other.rss_mib) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Runs `exe worker <args>` to completion, its standard error passed
/// through, and reads its report.
pub fn run(exe: &Path, args: &[String]) -> Result<Report, String> {
    let out = Command::new(exe)
        .arg("worker")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("a worker exited with {}", out.status));
    }
    Report::parse(&String::from_utf8_lossy(&out.stdout))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            passes: vec![
                PassTimes {
                    wall_s: 2.125,
                    setup_s: 0.015625,
                    items: 7,
                },
                PassTimes {
                    wall_s: 1.0e-3,
                    setup_s: 0.0,
                    items: 0,
                },
            ],
            tally: Tally {
                attempted: 48,
                failed: 1,
            },
            problems: vec!["mix-a/baseline:\ttimed out".into()],
            rss_mib: Some(10.5),
        }
    }

    #[test]
    fn a_report_reads_back_as_written() {
        let mut want = sample();
        let back = Report::parse(&want.render()).expect("parses");
        // Tabs and newlines in a problem become spaces.
        want.problems = vec!["mix-a/baseline: timed out".into()];
        assert_eq!(back, want);
        let no_rss = Report {
            rss_mib: None,
            ..sample()
        };
        assert_eq!(
            Report::parse(&no_rss.render()).expect("parses").rss_mib,
            None
        );
    }

    #[test]
    fn a_malformed_or_empty_report_is_refused() {
        assert!(Report::parse("").is_err());
        assert!(Report::parse("tally\t1\t0\n").is_err(), "no pass");
        assert!(Report::parse("pass\t1\t0\t3\n").is_err(), "no tally");
        assert!(Report::parse("pass\t1\t0\ttally\t1\t0\n").is_err());
        assert!(Report::parse("pass\t1\t0\t3\t9\ntally\t1\t0\n").is_err());
        assert!(Report::parse("pass\t1\t0\t3\ntally\t1\t0\nnoise\n").is_err());
    }

    #[test]
    fn merging_adds_cells_and_keeps_the_larger_peak() {
        let mut all = Report::default();
        all.merge(sample());
        all.merge(Report {
            rss_mib: Some(9.0),
            problems: Vec::new(),
            ..sample()
        });
        assert_eq!(all.passes.len(), 4);
        assert_eq!(
            all.tally,
            Tally {
                attempted: 96,
                failed: 2
            }
        );
        assert_eq!(all.problems.len(), 1);
        assert_eq!(all.rss_mib, Some(10.5));
    }
}
