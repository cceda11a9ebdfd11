//! A text format for litmus tests (a compact, herd-inspired dialect).
//!
//! ```text
//! # comment
//! name: MP+fence+fence
//! family: barriers
//! P0: W B 1 ; F ; W A 1
//! P1: R A r0 ; F ; R B r1
//! forbid: 1:r0=1 & 1:r1=0
//! ```
//!
//! * Locations are single letters `A`..`H` ([`Loc::LIMIT`] of them —
//!   the count the machine and the sim bridge support); registers are
//!   `r0`..`r31`.
//! * Statements: `W <loc> <value>`, `R <loc> <reg>`,
//!   `AMO <loc> <add> <reg>`, `F` (full fence), `F.ww`, `F.rr`.
//!   Append `@<reg>` to make a statement dependency-ordered after the
//!   load producing `<reg>` (e.g. `R B r1 @r0`).
//! * `forbid:` lines (zero or more) list outcomes the author expects the
//!   model to forbid; the runner additionally checks them against the
//!   axiomatic allowed set.
//!
//! The parser exists so users can keep corpora as plain files and run
//! them with `cargo run -p ise-bench --bin litmus -- <file>`.
//! [`render_litmus`] is its inverse: it pretty-prints a parsed test back
//! into the dialect, and `parse(render(parse(src)))` round-trips to an
//! equal test.
//!
//! Everything but the statement syntax and the `family:` header is a
//! skeleton shared with the source-level dialect
//! ([`src_parse`](crate::src_parse)): the line loop, the `name:`,
//! `forbid:` and `P<n>:` keys, the thread-label and produced-before-use
//! dependency checks (both errors carry their line), rendering, and the
//! directory loader.

use crate::corpus::{Family, LitmusTest};
use ise_consistency::program::{
    dangling_dep, LitmusProgram, Loc, Outcome, Statement, Stmt, StmtOp,
};
use ise_types::instr::{FenceKind, Reg};
use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::path::Path;

/// A parse failure, with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed test: the program plus author-declared forbidden outcomes.
#[derive(Debug, Clone)]
pub struct ParsedLitmus {
    /// The test (name, family, program).
    pub test: LitmusTest,
    /// Outcomes the author expects to be forbidden.
    pub forbidden: Vec<Outcome>,
}

// ---------------------------------------------------------------------
// The skeleton both dialects share: the line loop, the `name:`,
// `forbid:` and `P<n>:` keys, thread-label and dependency checks, the
// operand tokens, rendering, and the directory loader.
// ---------------------------------------------------------------------

/// The parts of a text dialect that differ: its statement syntax and
/// its one header key. Implemented by [`Stmt`] (this dialect) and by
/// [`SrcStmt`](ise_consistency::source::SrcStmt)
/// ([`src_parse`](crate::src_parse)).
pub(crate) trait Dialect: Statement {
    /// The header value (`family:` here, `model:` at the source level).
    type Header: Copy;
    /// The header key.
    const HEADER_KEY: &'static str;
    /// The header value of a file without a header line.
    const DEFAULT_HEADER: Self::Header;
    /// Parses a header value.
    const PARSE_HEADER: fn(&str, usize) -> Result<Self::Header, ParseError>;
    /// The canonical token for a header value.
    const HEADER_TOKEN: fn(Self::Header) -> &'static str;
    /// Parses one statement, `@<reg>` annotation included.
    fn parse_stmt(text: &str, line: usize) -> Result<Self, ParseError>;
    /// Renders one statement without its dependency annotation.
    fn render_op(&self, out: &mut String);
}

/// The dialect-neutral content of one parsed test.
pub(crate) struct Body<S: Dialect> {
    pub(crate) name: String,
    pub(crate) header: S::Header,
    pub(crate) threads: Vec<Vec<S>>,
    pub(crate) forbidden: Vec<Outcome>,
}

pub(crate) fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// The highest location letter the dialects name (`H` for
/// [`Loc::LIMIT`] of 8).
fn loc_limit_letter() -> char {
    (b'A' + Loc::LIMIT - 1) as char
}

pub(crate) fn parse_loc(tok: &str, line: usize) -> Result<Loc, ParseError> {
    let mut chars = tok.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) if c.is_ascii_uppercase() => {
            let loc = Loc(c as u8 - b'A');
            if loc.0 < Loc::LIMIT {
                Ok(loc)
            } else {
                Err(err(
                    line,
                    format!(
                        "location `{c}` is out of range: the machine supports {} locations \
                         (A..{})",
                        Loc::LIMIT,
                        loc_limit_letter()
                    ),
                ))
            }
        }
        _ => Err(err(
            line,
            format!("expected a location A..{}, got `{tok}`", loc_limit_letter()),
        )),
    }
}

/// The letter naming `loc`.
///
/// # Panics
///
/// Panics if `loc` is at or beyond [`Loc::LIMIT`].
pub(crate) fn loc_name(loc: Loc) -> char {
    assert!(
        loc.0 < Loc::LIMIT,
        "the litmus dialect only names locations A..{}",
        loc_limit_letter()
    );
    (b'A' + loc.0) as char
}

pub(crate) fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    tok.strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| n < 32)
        .map(Reg)
        .ok_or_else(|| err(line, format!("expected a register r0..r31, got `{tok}`")))
}

pub(crate) fn parse_value(tok: &str, line: usize) -> Result<u64, ParseError> {
    tok.parse::<u64>()
        .map_err(|_| err(line, format!("expected a value, got `{tok}`")))
}

/// Splits a trailing dependency annotation `@rN` off a statement.
pub(crate) fn split_dep(text: &str, line: usize) -> Result<(&str, Option<Reg>), ParseError> {
    match text.rsplit_once('@') {
        Some((body, dep_tok)) => Ok((body.trim(), Some(parse_reg(dep_tok.trim(), line)?))),
        None => Ok((text.trim(), None)),
    }
}

fn parse_outcome(text: &str, line: usize) -> Result<Outcome, ParseError> {
    let mut outcome = Outcome::new();
    for clause in text.split('&') {
        let clause = clause.trim();
        let (lhs, value) = clause
            .split_once('=')
            .ok_or_else(|| err(line, format!("expected `<t>:<reg>=<v>`, got `{clause}`")))?;
        let (thread, reg) = lhs
            .split_once(':')
            .ok_or_else(|| err(line, format!("expected `<t>:<reg>`, got `{lhs}`")))?;
        let t: usize = thread
            .trim()
            .parse()
            .map_err(|_| err(line, format!("bad thread id `{thread}`")))?;
        let r = parse_reg(reg.trim(), line)?;
        let v = parse_value(value.trim(), line)?;
        outcome.insert((t, r), v);
    }
    if outcome.is_empty() {
        return Err(err(line, "empty outcome"));
    }
    Ok(outcome)
}

/// Parses one test of dialect `S`.
pub(crate) fn parse_body<S: Dialect>(src: &str) -> Result<Body<S>, ParseError> {
    let mut name: Option<String> = None;
    let mut header = S::DEFAULT_HEADER;
    let mut threads: BTreeMap<usize, Vec<S>> = BTreeMap::new();
    let mut forbidden = Vec::new();

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, rest) = line
            .split_once(':')
            .ok_or_else(|| err(lineno, "expected `key: value`"))?;
        let key = key.trim();
        let rest = rest.trim();
        match key {
            "name" => name = Some(rest.to_string()),
            "forbid" => forbidden.push(parse_outcome(rest, lineno)?),
            k if k == S::HEADER_KEY => header = (S::PARSE_HEADER)(rest, lineno)?,
            k if k.starts_with('P') => {
                let tid: usize = k[1..]
                    .parse()
                    .map_err(|_| err(lineno, format!("bad thread label `{k}`")))?;
                if threads.contains_key(&tid) {
                    return Err(err(lineno, format!("duplicate thread label P{tid}")));
                }
                let stmts = rest
                    .split(';')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(|s| S::parse_stmt(s, lineno))
                    .collect::<Result<Vec<_>, _>>()?;
                if stmts.is_empty() {
                    return Err(err(lineno, "thread with no statements"));
                }
                if let Some((_, r)) = dangling_dep(&stmts) {
                    return Err(err(
                        lineno,
                        format!("thread {tid}: dependency on {r} not produced by an earlier load"),
                    ));
                }
                threads.insert(tid, stmts);
            }
            other => return Err(err(lineno, format!("unknown key `{other}`"))),
        }
    }

    if threads.is_empty() {
        return Err(err(0, "no threads (P0:, P1:, ...) found"));
    }
    for (expect, &tid) in threads.keys().enumerate() {
        if tid != expect {
            return Err(err(
                0,
                format!("thread ids must be dense from P0; missing P{expect}"),
            ));
        }
    }
    Ok(Body {
        name: name.unwrap_or_else(|| "anonymous".into()),
        header,
        threads: threads.into_values().collect(),
        forbidden,
    })
}

/// Pretty-prints one test of dialect `S`: canonical (one `P<t>:` line
/// per thread, statements joined by ` ; `, one `forbid:` line per
/// outcome), so `parse ∘ render` is a fixed point.
pub(crate) fn render_body<S: Dialect>(
    name: &str,
    header: S::Header,
    threads: &[Vec<S>],
    forbidden: &[Outcome],
) -> String {
    let mut out = String::new();
    writeln!(out, "name: {name}").unwrap();
    writeln!(out, "{}: {}", S::HEADER_KEY, (S::HEADER_TOKEN)(header)).unwrap();
    for (t, stmts) in threads.iter().enumerate() {
        write!(out, "P{t}:").unwrap();
        for (i, s) in stmts.iter().enumerate() {
            out.push_str(if i == 0 { " " } else { " ; " });
            s.render_op(&mut out);
            if let Some(r) = s.dep() {
                write!(out, " @{r}").unwrap();
            }
        }
        out.push('\n');
    }
    for f in forbidden {
        let clauses: Vec<String> = f.iter().map(|((t, r), v)| format!("{t}:{r}={v}")).collect();
        writeln!(out, "forbid: {}", clauses.join(" & ")).unwrap();
    }
    out
}

/// Parses every `*.<ext>` file directly inside `dir`, sorted by file
/// name. A missing directory is an empty corpus (the fuzzer may simply
/// not have written any reproducers yet).
pub(crate) fn load_dir<T>(
    dir: &Path,
    ext: &str,
    parse: fn(&str) -> Result<T, ParseError>,
) -> Result<Vec<(String, T)>, String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut files: Vec<std::path::PathBuf> = entries
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    files.retain(|p| p.extension().is_some_and(|x| x == ext));
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let parsed = parse(&src).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok((name, parsed))
        })
        .collect()
}

// ---------------------------------------------------------------------
// The hardware dialect.
// ---------------------------------------------------------------------

fn parse_family(tok: &str, line: usize) -> Result<Family, ParseError> {
    match tok.trim().to_ascii_lowercase().as_str() {
        "dependencies" | "dep" => Ok(Family::Dependencies),
        "po-same-location" | "poloc" => Ok(Family::PoSameLocation),
        "preserved-po" | "ppo" => Ok(Family::PreservedPo),
        "external-read-from" | "erf" => Ok(Family::ExternalReadFrom),
        "internal-read-from" | "irf" => Ok(Family::InternalReadFrom),
        "coherence" | "co" => Ok(Family::CoherenceOrder),
        "from-read" | "fr" => Ok(Family::FromRead),
        "barriers" | "barrier" => Ok(Family::Barriers),
        other => Err(err(line, format!("unknown family `{other}`"))),
    }
}

/// The canonical token for a family — the form [`render_litmus`] emits
/// and [`parse_litmus`] accepts.
fn family_token(family: Family) -> &'static str {
    match family {
        Family::Dependencies => "dep",
        Family::PoSameLocation => "poloc",
        Family::PreservedPo => "ppo",
        Family::ExternalReadFrom => "erf",
        Family::InternalReadFrom => "irf",
        Family::CoherenceOrder => "co",
        Family::FromRead => "fr",
        Family::Barriers => "barrier",
    }
}

impl Dialect for Stmt {
    type Header = Family;
    const HEADER_KEY: &'static str = "family";
    const DEFAULT_HEADER: Family = Family::ExternalReadFrom;
    const PARSE_HEADER: fn(&str, usize) -> Result<Family, ParseError> = parse_family;
    const HEADER_TOKEN: fn(Family) -> &'static str = family_token;

    fn parse_stmt(text: &str, line: usize) -> Result<Stmt, ParseError> {
        let (body, dep) = split_dep(text, line)?;
        let toks: Vec<&str> = body.split_whitespace().collect();
        let stmt = match toks.as_slice() {
            ["W", loc, value] => Stmt::write(parse_loc(loc, line)?, parse_value(value, line)?),
            ["R", loc, reg] => Stmt::read(parse_loc(loc, line)?, parse_reg(reg, line)?),
            ["AMO", loc, add, reg] => Stmt::amo(
                parse_loc(loc, line)?,
                parse_value(add, line)?,
                parse_reg(reg, line)?,
            ),
            ["F"] => Stmt::fence(FenceKind::Full),
            ["F.ww"] => Stmt::fence(FenceKind::StoreStore),
            ["F.rr"] => Stmt::fence(FenceKind::LoadLoad),
            _ => return Err(err(line, format!("unrecognized statement `{body}`"))),
        };
        Ok(stmt.with_dep(dep))
    }

    fn render_op(&self, out: &mut String) {
        match self.op {
            StmtOp::Write { loc, value } => write!(out, "W {} {value}", loc_name(loc)).unwrap(),
            StmtOp::Read { loc, dst } => write!(out, "R {} {dst}", loc_name(loc)).unwrap(),
            StmtOp::Amo { loc, add, dst } => {
                write!(out, "AMO {} {add} {dst}", loc_name(loc)).unwrap()
            }
            StmtOp::Fence(FenceKind::Full) => out.push('F'),
            StmtOp::Fence(FenceKind::StoreStore) => out.push_str("F.ww"),
            StmtOp::Fence(FenceKind::LoadLoad) => out.push_str("F.rr"),
        }
    }
}

/// Parses one litmus test from its text form.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the offending line.
pub fn parse_litmus(src: &str) -> Result<ParsedLitmus, ParseError> {
    let body = parse_body::<Stmt>(src)?;
    Ok(ParsedLitmus {
        test: LitmusTest {
            name: body.name,
            family: body.header,
            program: LitmusProgram::new(body.threads),
        },
        forbidden: body.forbidden,
    })
}

/// Pretty-prints a parsed test back into the text dialect.
///
/// The output is canonical (one `P<t>:` line per thread, statements
/// joined by ` ; `, one `forbid:` line per outcome) and re-parses to a
/// test equal to the input — the round-trip property
/// `parse(render(p)) == p` the parser tests enforce.
///
/// # Panics
///
/// Panics if the program uses a location at or beyond [`Loc::LIMIT`],
/// which the text dialect cannot name (and the machine does not
/// support).
pub fn render_litmus(p: &ParsedLitmus) -> String {
    render_body(
        &p.test.name,
        p.test.family,
        &p.test.program.threads,
        &p.forbidden,
    )
}

/// Parses every `*.litmus` file directly inside `dir`, sorted by file
/// name — how the regression corpus under `litmus/regressions/` is
/// loaded for replay. A missing directory is an empty corpus (the
/// fuzzer may simply not have written any reproducers yet).
///
/// # Errors
///
/// Returns a message naming the unreadable or unparseable file.
pub fn load_litmus_dir(dir: &Path) -> Result<Vec<(String, ParsedLitmus)>, String> {
    load_dir(dir, "litmus", parse_litmus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_test;
    use ise_types::ConsistencyModel;

    const MP: &str = r#"
# Fig. 1 of the paper.
name: MP+fence+fence
family: barriers
P0: W B 1 ; F ; W A 1
P1: R A r0 ; F ; R B r1
forbid: 1:r0=1 & 1:r1=0
"#;

    #[test]
    fn parses_the_mp_test() {
        let p = parse_litmus(MP).expect("parses");
        assert_eq!(p.test.name, "MP+fence+fence");
        assert_eq!(p.test.family, Family::Barriers);
        assert_eq!(p.test.program.threads.len(), 2);
        assert_eq!(p.test.program.threads[0].len(), 3);
        assert_eq!(p.forbidden.len(), 1);
        let f = &p.forbidden[0];
        assert_eq!(f.get(&(1, Reg(0))), Some(&1));
        assert_eq!(f.get(&(1, Reg(1))), Some(&0));
    }

    #[test]
    fn parsed_test_runs_and_respects_forbid() {
        let p = parse_litmus(MP).unwrap();
        for inject in [false, true] {
            let report = run_test(&p.test, ConsistencyModel::Pc, inject);
            assert!(report.passed());
            for f in &p.forbidden {
                assert!(!report.observed.contains(f), "forbidden outcome observed");
                assert!(!report.allowed.contains(f), "model should forbid it too");
            }
        }
    }

    #[test]
    fn dependency_annotation_parses() {
        let src = "P0: R A r0 ; R B r1 @r0";
        let p = parse_litmus(src).unwrap();
        assert_eq!(p.test.program.threads[0][1].dep, Some(Reg(0)));
    }

    #[test]
    fn amo_and_fence_variants_parse() {
        let src = "P0: AMO A 1 r0 ; F.ww ; F.rr ; W B 2";
        let p = parse_litmus(src).unwrap();
        assert_eq!(p.test.program.threads[0].len(), 4);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "name: x\nP0: W A\n";
        let e = parse_litmus(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unrecognized statement"));

        let bad2 = "P0: W A 1\nforbid: nonsense\n";
        assert_eq!(parse_litmus(bad2).unwrap_err().line, 2);
    }

    #[test]
    fn sparse_thread_ids_rejected() {
        let bad = "P0: W A 1\nP2: R A r0\n";
        let e = parse_litmus(bad).unwrap_err();
        assert!(e.message.contains("missing P1"));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_litmus("# nothing\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "\n# c1\nname: t\n\n# c2\nP0: W A 1\n";
        assert!(parse_litmus(src).is_ok());
    }

    #[test]
    fn render_round_trips_every_construct() {
        let src = "name: kitchen-sink\nfamily: dep\n\
                   P0: W A 1 ; F ; F.ww ; F.rr ; AMO B 2 r1\n\
                   P1: R A r0 ; R B r2 @r0\n\
                   forbid: 1:r0=1 & 1:r2=0\nforbid: 0:r1=7\n";
        let first = parse_litmus(src).expect("parses");
        let rendered = render_litmus(&first);
        let second = parse_litmus(&rendered)
            .unwrap_or_else(|e| panic!("rendered text must re-parse: {e}\n{rendered}"));
        assert_eq!(first.test, second.test);
        assert_eq!(first.forbidden, second.forbidden);
        // And the rendering is canonical: a second round trip is a
        // fixed point.
        assert_eq!(rendered, render_litmus(&second));
    }

    #[test]
    fn locations_beyond_the_machine_limit_are_rejected() {
        // `I` is the first letter past Loc::LIMIT = 8; `Z` used to
        // parse to Loc(25) even though nothing downstream supports it.
        for bad in ["P0: W I 1", "P0: R Z r0", "P0: AMO Q 1 r0"] {
            let e = parse_litmus(bad).unwrap_err();
            assert!(
                e.message.contains("out of range"),
                "`{bad}` must be rejected as out of range, got: {}",
                e.message
            );
            assert!(e.message.contains("A..H"), "got: {}", e.message);
        }
    }

    #[test]
    fn every_supported_location_letter_parses() {
        for (i, c) in ('A'..='H').enumerate() {
            let src = format!("P0: W {c} 1");
            let p = parse_litmus(&src).unwrap_or_else(|e| panic!("{c}: {e}"));
            assert_eq!(p.test.program.locations(), vec![Loc(i as u8)]);
        }
    }

    #[test]
    #[should_panic(expected = "only names locations A..H")]
    fn rendering_an_out_of_range_location_panics() {
        let p = ParsedLitmus {
            test: LitmusTest {
                name: "bad".into(),
                family: Family::Barriers,
                program: LitmusProgram::new(vec![vec![Stmt::write(Loc(Loc::LIMIT), 1)]]),
            },
            forbidden: Vec::new(),
        };
        let _ = render_litmus(&p);
    }

    #[test]
    fn load_litmus_dir_of_missing_directory_is_empty() {
        let loaded = load_litmus_dir(std::path::Path::new("/nonexistent/fuzz-regressions"))
            .expect("missing dir is an empty corpus");
        assert!(loaded.is_empty());
    }

    #[test]
    fn every_family_token_round_trips() {
        for fam in Family::ALL {
            let src = format!("family: {}\nP0: W A 1\n", family_token(fam));
            assert_eq!(parse_litmus(&src).unwrap().test.family, fam);
        }
    }
}
