//! Run records: the host and run stamp written beside every result, and
//! the comparison that refuses to pair runs from different hosts.
//!
//! A record is a tab-separated text file, one fact per line:
//! `stamp <key> <value>`, `run <key> <value>` or
//! `metric <name> <unit> <value>`.

use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The facts that must match for two runs to be comparable.
const HOST_KEYS: [&str; 3] = ["nproc", "cpu", "rustc"];

/// One run's stamp and metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// Host facts (`nproc`, `cpu`, `rustc`).
    pub stamp: BTreeMap<String, String>,
    /// Run facts (`commit`, `seed`, `workload`, `trace`, ...).
    pub run: BTreeMap<String, String>,
    /// Metric name → (unit, value).
    pub metrics: BTreeMap<String, (String, f64)>,
}

fn clean(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ").trim().to_string()
}

fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| clean(&String::from_utf8_lossy(&out.stdout)))
}

/// The host stamp of this machine.
pub fn host_stamp() -> BTreeMap<String, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| clean(v))
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        command_line(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    BTreeMap::from([
        ("nproc".to_string(), nproc.to_string()),
        ("cpu".to_string(), cpu),
        ("rustc".to_string(), rustc),
    ])
}

/// The commit checked out in the working directory, or `unknown` when it
/// is not a git work tree (git is kept from searching parent
/// directories).
pub fn git_commit() -> String {
    let here = std::env::current_dir().unwrap_or_default();
    let ceiling = here.parent().map(Path::to_path_buf).unwrap_or_default();
    command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
    .filter(|c| !c.is_empty())
    .unwrap_or_else(|| "unknown".into())
}

impl Record {
    /// Renders the record in its line format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.stamp {
            out += &format!("stamp\t{k}\t{}\n", clean(v));
        }
        for (k, v) in &self.run {
            out += &format!("run\t{k}\t{}\n", clean(v));
        }
        for (name, (unit, value)) in &self.metrics {
            out += &format!("metric\t{name}\t{unit}\t{value}\n");
        }
        out
    }

    /// Parses the line format.
    pub fn parse(text: &str) -> Result<Record, String> {
        let mut r = Record::default();
        for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["stamp", k, v] => {
                    r.stamp.insert(k.to_string(), v.to_string());
                }
                ["run", k, v] => {
                    r.run.insert(k.to_string(), v.to_string());
                }
                ["metric", name, unit, value] => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("line {}: bad value {value:?}", n + 1))?;
                    r.metrics.insert(name.to_string(), (unit.to_string(), v));
                }
                _ => return Err(format!("line {}: unrecognised {line:?}", n + 1)),
            }
        }
        Ok(r)
    }

    /// `workload` plus `/traced` for traced runs: records are only
    /// compared within one group.
    pub fn group(&self) -> String {
        let w = self.run.get("workload").map_or("?", String::as_str);
        if self.run.get("trace").is_some_and(|t| t == "1") {
            format!("{w}/traced")
        } else {
            w.to_string()
        }
    }

    fn host(&self) -> Vec<(&str, Option<&String>)> {
        HOST_KEYS.iter().map(|&k| (k, self.stamp.get(k))).collect()
    }
}

/// Refuses (with the differing fact) unless every record carries the
/// same complete host stamp.
pub fn check_same_host(records: &[Record]) -> Result<(), String> {
    let Some(first) = records.first() else {
        return Err("no records".into());
    };
    for (k, v) in first.host() {
        if v.is_none() {
            return Err(format!("a record has no host stamp {k:?}"));
        }
    }
    for r in &records[1..] {
        for ((k, a), (_, b)) in first.host().into_iter().zip(r.host()) {
            if a != b {
                return Err(format!(
                    "host stamps differ on {k}: {:?} vs {:?}; only same-host runs compare",
                    a.map_or("<missing>", |s| s.as_str()),
                    b.map_or("<missing>", |s| s.as_str())
                ));
            }
        }
    }
    Ok(())
}

/// Reads every `*.tsv` record in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tsv"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Record::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn summary(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some((q1, q3)) => format!(
            "{:.6} [{q1:.6}, {q3:.6}] spread {:.1}%",
            median(xs),
            100.0 * spread(xs)
        ),
        None => format!("{:.6}", median(xs)),
    }
}

/// Compares two sets of runs metric by metric: median and quartiles on
/// each side and the change of the median. Refuses when any host stamp
/// differs.
pub fn compare(before: &[Record], after: &[Record]) -> Result<String, String> {
    let all: Vec<Record> = before.iter().chain(after).cloned().collect();
    check_same_host(&all)?;
    let collect = |rs: &[Record]| {
        let mut m: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
        for r in rs {
            for (name, (unit, v)) in &r.metrics {
                m.entry((r.group(), name.clone()))
                    .or_insert_with(|| (unit.clone(), Vec::new()))
                    .1
                    .push(*v);
            }
        }
        m
    };
    let (b, a) = (collect(before), collect(after));
    let mut out = String::from(
        "group\tmetric\tunit\tbefore median [q1, q3]\tafter median [q1, q3]\tchange\n",
    );
    for (key, (unit, bv)) in &b {
        let Some((_, av)) = a.get(key) else { continue };
        let (mb, ma) = (median(bv), median(av));
        let change = if mb == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.2}%", 100.0 * (ma - mb) / mb.abs())
        };
        out += &format!(
            "{}\t{}\t{unit}\t{} (n={})\t{} (n={})\t{change}\n",
            key.0,
            key.1,
            summary(bv),
            bv.len(),
            summary(av),
            av.len()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cpu: &str, wall: f64) -> Record {
        Record {
            stamp: BTreeMap::from([
                ("nproc".into(), "2".into()),
                ("cpu".into(), cpu.into()),
                ("rustc".into(), "rustc 1.95.0".into()),
            ]),
            run: BTreeMap::from([
                ("workload".into(), "fig6".into()),
                ("trace".into(), "0".into()),
                ("seed".into(), "3".into()),
            ]),
            metrics: BTreeMap::from([("wall_s".into(), ("s".into(), wall))]),
        }
    }

    #[test]
    fn records_round_trip_through_the_line_format() {
        let mut r = record("Some CPU\t@ 2GHz", 1.25);
        r.metrics
            .insert("items_per_s".into(), ("1/s".into(), 3.5e6));
        let back = Record::parse(&r.render()).expect("parses");
        assert_eq!(back.stamp["cpu"], "Some CPU @ 2GHz");
        assert_eq!(back.metrics, r.metrics);
        assert!(Record::parse("metric\twall_s\ts\tfast\n").is_err());
        assert!(Record::parse("bogus\n").is_err());
    }

    #[test]
    fn comparison_refuses_runs_from_different_hosts() {
        let before = [record("CPU A", 1.0), record("CPU A", 1.1)];
        let same = [record("CPU A", 0.9)];
        let other = [record("CPU B", 0.9)];
        let table = compare(&before, &same).expect("same host compares");
        assert!(table.contains("fig6\twall_s\ts"));
        assert!(table.contains("-14.29%"), "{table}");
        let err = compare(&before, &other).unwrap_err();
        assert!(err.contains("cpu"), "{err}");
        let mut unstamped = record("CPU A", 1.0);
        unstamped.stamp.remove("rustc");
        assert!(compare(&before, &[unstamped])
            .unwrap_err()
            .contains("rustc"));
    }

    #[test]
    fn traced_runs_form_their_own_group() {
        let mut r = record("CPU A", 1.0);
        assert_eq!(r.group(), "fig6");
        r.run.insert("trace".into(), "1".into());
        assert_eq!(r.group(), "fig6/traced");
    }
}
