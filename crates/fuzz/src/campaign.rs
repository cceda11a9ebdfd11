//! Parallel fuzzing campaigns with deterministic seed striding.
//!
//! A campaign runs `cases` independent [`FuzzCase`]s, each derived from
//! the master seed and its index by a splitmix64 stride — so case *i*
//! is the same program for every worker count, and the whole report
//! (rendered registry included) is byte-identical under `ISE_WORKERS=1`
//! and `ISE_WORKERS=8`. Findings are shrunk on the worker that found
//! them and surface as minimal reproducers, renderable into the litmus
//! text dialect for the regression corpus under `litmus/regressions/`.
//!
//! The finding pipeline is shared with the trisection campaign and the
//! adversary's corruption shrinker: [`file_findings`] checks a case,
//! files one report per finding kind, shrinks it and re-derives its
//! detail from the reproducer; [`write_regressions`] is the one writer.

use crate::gen::{FuzzCase, GenConfig};
use crate::oracle::{check_case, Finding, FindingKind, OracleConfig};
use crate::shrink::{shrink_while, unit_value, Dialect, Pass};
use ise_consistency::program::{Loc, Outcome, Program, Stmt};
use ise_consistency::BatchChecker;
use ise_litmus::{render_litmus, Family, LitmusTest, ParsedLitmus};
use ise_telemetry::Registry;
use ise_types::json::Json;
use ise_types::model::{ConsistencyModel, DrainPolicy};
use std::path::{Path, PathBuf};

/// Campaign shape, shared by both dialects: `G` is the generator's
/// program-shape limits and `O` the oracle selection
/// ([`FuzzConfig`], [`TrisectConfig`](crate::trisect::TrisectConfig)).
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig<G, O> {
    /// Master seed; case `i` uses [`case_seed`]`(seed, i)`.
    pub seed: u64,
    /// Cases to run.
    pub cases: usize,
    /// Program-shape limits.
    pub gen: G,
    /// Oracle selection (sim legs on/off, seeded bug for self-tests).
    pub oracle: O,
    /// Whether findings are shrunk before reporting.
    pub shrink: bool,
}

impl<G: Default, O: Default> Default for CampaignConfig<G, O> {
    fn default() -> Self {
        CampaignConfig {
            seed: 1,
            cases: 200,
            gen: G::default(),
            oracle: O::default(),
            shrink: true,
        }
    }
}

/// The hardware-dialect campaign shape.
pub type FuzzConfig = CampaignConfig<GenConfig, OracleConfig>;

/// The per-case seed: a splitmix64 stream over the master seed, so the
/// mapping index → case is independent of scheduling and worker count.
pub fn case_seed(master: u64, index: usize) -> u64 {
    let mut z = master.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One reported (and possibly shrunk) finding of either dialect
/// ([`TrisectFinding`](crate::trisect::TrisectFinding) is the
/// source-level one).
#[derive(Debug, Clone)]
pub struct CampaignFinding<C: Dialect = FuzzCase> {
    /// Campaign index of the case that found it.
    pub index: usize,
    /// The case's seed (regenerate with the dialect's generator,
    /// [`generate`](crate::gen::generate) or
    /// [`generate_src`](crate::src_gen::generate_src)).
    pub seed: u64,
    /// Which oracle pair disagreed.
    pub kind: C::Kind,
    /// Explanation, re-derived from the shrunk case.
    pub detail: String,
    /// The minimal reproducer.
    pub case: C,
    /// Forbidden-but-observed outcomes of the shrunk case (axiom and
    /// escape findings only) — these become `forbid:` lines.
    pub outcomes: Vec<Outcome>,
    /// Accepted shrink steps (0 when shrinking is off).
    pub steps: usize,
}

/// Files one finding of `kind` on `case`: shrunk while `kind` still
/// reproduces (when `shrink` is set), with its detail and outcomes
/// re-derived from the reproducer itself.
pub fn file_finding<C: Dialect>(
    index: usize,
    seed: u64,
    case: &C,
    kind: C::Kind,
    shrink: bool,
    check: &mut impl FnMut(&C) -> Vec<Finding<C::Kind>>,
) -> CampaignFinding<C> {
    let (case, steps) = if shrink {
        let shrunk = shrink_while(case, |c| check(c).iter().any(|f| f.kind == kind));
        (shrunk.case, shrunk.steps)
    } else {
        (case.clone(), 0)
    };
    let (detail, outcomes) = check(&case)
        .into_iter()
        .find(|f| f.kind == kind)
        .map(|f| (f.detail, f.outcomes))
        .unwrap_or_default();
    CampaignFinding {
        index,
        seed,
        kind,
        detail,
        case,
        outcomes,
        steps,
    }
}

/// Checks `case` and files one finding per kind it reports: a single
/// root cause often fires several outcomes at once, and shrinking
/// converges per kind.
pub fn file_findings<C: Dialect>(
    index: usize,
    seed: u64,
    case: &C,
    shrink: bool,
    mut check: impl FnMut(&C) -> Vec<Finding<C::Kind>>,
) -> Vec<CampaignFinding<C>> {
    let mut kinds: Vec<C::Kind> = check(case).iter().map(|f| f.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
        .into_iter()
        .map(|kind| file_finding(index, seed, case, kind, shrink, &mut check))
        .collect()
}

/// Adds the finding tail of a campaign registry: the total, one counter
/// per kind in `kinds` (pre-seeded to zero so the key set — and the
/// rendered bytes — never depend on what was found), the clean flag, and
/// the findings themselves as structured leaves.
pub(crate) fn add_findings<C: Dialect>(
    reg: &mut Registry,
    findings: &[CampaignFinding<C>],
    kinds: &[C::Kind],
) {
    reg.add("findings", findings.len() as u64);
    for &kind in kinds {
        reg.add(
            &format!("finding.{}", C::kind_name(kind)),
            findings.iter().filter(|f| f.kind == kind).count() as u64,
        );
    }
    reg.put("clean", Json::from(findings.is_empty()));
    reg.put(
        "reproducers",
        Json::arr(findings.iter().map(|f| {
            Json::obj([
                ("index", Json::from(f.index)),
                ("seed", Json::from(f.seed)),
                ("kind", Json::str(C::kind_name(f.kind))),
                ("detail", Json::str(f.detail.clone())),
                ("steps", Json::from(f.steps)),
                (C::EXT, Json::str(C::render(f))),
            ])
        })),
    );
}

/// Writes each finding's reproducer into `dir` (created if missing) as
/// `<kind>-seed<seed>.<ext>`, returning the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_regressions<C: Dialect>(
    findings: &[CampaignFinding<C>],
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    findings
        .iter()
        .map(|f| {
            let path = dir.join(format!(
                "{}-seed{}.{}",
                C::kind_name(f.kind),
                f.seed,
                C::EXT
            ));
            std::fs::write(&path, C::render(f))?;
            Ok(path)
        })
        .collect()
}

/// The one campaign loop both dialects run: case `i` is generated from
/// [`case_seed`]`(cfg.seed, i)` up front (cheap next to the oracles), the
/// expensive oracle/shrink work is deduped by [`Dialect::content`] and
/// split across `workers`, and each case's findings are re-stamped with
/// its own index and seed, so the result is byte-identical to a
/// dedupe-free run for every worker count. `fold` sees every case with
/// its tally in index order. Returns the findings in case order and the
/// number of cases actually evaluated.
pub(crate) fn run_cases<C: Dialect>(
    cfg: &CampaignConfig<C::Gen, C::Oracle>,
    workers: usize,
    mut fold: impl FnMut(&C, C::Tally),
) -> (Vec<CampaignFinding<C>>, usize) {
    let cases: Vec<(u64, C)> = (0..cfg.cases)
        .map(|i| {
            let seed = case_seed(cfg.seed, i);
            (seed, C::generate(seed, &cfg.gen))
        })
        .collect();
    let (oracle, shrink) = (&cfg.oracle, cfg.shrink);
    let (cells, unique) = ise_par::par_map_dedup(
        &cases,
        workers,
        |(_, case)| ise_types::persist::fnv1a(case.content().as_bytes()),
        |index, (seed, case)| case.evaluate(index, *seed, oracle, shrink),
    );
    let mut findings = Vec::new();
    for (index, ((seed, case), (tally, cell))) in cases.iter().zip(cells).enumerate() {
        fold(case, tally);
        findings.extend(cell.into_iter().map(|f| CampaignFinding {
            index,
            seed: *seed,
            ..f
        }));
    }
    (findings, unique)
}

/// Campaign results.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Master seed the campaign ran with.
    pub seed: u64,
    /// Cases run.
    pub cases: usize,
    /// Cases actually evaluated after content-hash dedupe (≤ `cases`;
    /// seeds that generate byte-identical programs share one oracle
    /// evaluation).
    pub unique_cases: usize,
    /// Every finding, in case order, shrunk when the campaign asked.
    pub findings: Vec<CampaignFinding>,
    /// Cases per consistency model, in [`ConsistencyModel::ALL`] order.
    pub model_cases: [u64; 3],
    /// Cases that ran the split-stream ablation.
    pub split_stream_cases: u64,
    /// Cases with at least one faulting location.
    pub faulting_cases: u64,
    /// Cases using the transient-overlay fault source.
    pub overlay_cases: u64,
    /// Allowed-set enumerations performed across all cells.
    pub axiom_enumerations: u64,
}

impl FuzzReport {
    /// Whether every case passed every oracle.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The telemetry-registry view: coverage counters, then one counter
    /// per finding kind (pre-seeded to zero so the key set — and the
    /// rendered bytes — never depend on what was found), then the
    /// findings themselves as structured leaves. Byte-identical across
    /// worker counts by construction.
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add("seed", self.seed);
        reg.add("cases", self.cases as u64);
        reg.add("unique_cases", self.unique_cases as u64);
        for (i, model) in ConsistencyModel::ALL.into_iter().enumerate() {
            reg.add(&format!("model.{model}.cases"), self.model_cases[i]);
        }
        reg.add("split_stream_cases", self.split_stream_cases);
        reg.add("faulting_cases", self.faulting_cases);
        reg.add("overlay_cases", self.overlay_cases);
        reg.add("axiom_enumerations", self.axiom_enumerations);
        add_findings(&mut reg, &self.findings, &FindingKind::ALL);
        reg
    }
}

/// Renders a finding as a litmus-dialect test.
///
/// The family is a display heuristic (fences → barriers, dependencies →
/// dep, otherwise external read-from). `forbid:` lines are emitted only
/// for axiom findings under PC or WC: the replay corpus is checked
/// against the PC allowed set, and since `allowed(SC) ⊆ allowed(PC) ⊆
/// allowed(WC)`, a WC-forbidden outcome is PC-forbidden too, but an
/// SC-forbidden outcome need not be.
pub fn to_parsed(f: &CampaignFinding) -> ParsedLitmus {
    let stmts = f.case.program.threads.iter().flatten();
    let family = if stmts
        .clone()
        .any(|s| matches!(s.op, ise_consistency::program::StmtOp::Fence(_)))
    {
        Family::Barriers
    } else if stmts.clone().any(|s| s.dep.is_some()) {
        Family::Dependencies
    } else {
        Family::ExternalReadFrom
    };
    let forbidden = match f.case.model {
        ConsistencyModel::Pc | ConsistencyModel::Wc if f.kind == FindingKind::AxiomViolation => {
            f.outcomes.clone()
        }
        _ => Vec::new(),
    };
    ParsedLitmus {
        test: LitmusTest {
            name: format!("fuzz/{}-seed{}", f.kind.name(), f.seed),
            family,
            program: f.case.program.clone(),
        },
        forbidden,
    }
}

impl Dialect for FuzzCase {
    type Stmt = Stmt;
    type Kind = FindingKind;
    type Gen = GenConfig;
    type Oracle = OracleConfig;
    /// Axiomatic allowed-set enumerations.
    type Tally = u64;
    const PASSES: &'static [Pass<Stmt>] = &[unit_value];
    const EXT: &'static str = "litmus";

    fn parts(&mut self) -> (&mut Program<Stmt>, &mut Vec<Loc>, &mut bool) {
        (&mut self.program, &mut self.faulting, &mut self.overlay)
    }

    fn kind_name(kind: FindingKind) -> &'static str {
        kind.name()
    }

    fn render(finding: &CampaignFinding) -> String {
        render_litmus(&to_parsed(finding))
    }

    fn generate(seed: u64, gen: &GenConfig) -> Self {
        crate::gen::generate(seed, gen)
    }

    /// `seed` is excluded — it is reporting metadata — except for overlay
    /// cases, where it seeds the transient-overlay RNG and so *is*
    /// behavior.
    fn content(&self) -> String {
        let overlay_seed = if self.overlay { self.seed } else { 0 };
        format!(
            "{:?}\u{1f}{:?}\u{1f}{:?}\u{1f}{:?}\u{1f}{overlay_seed}",
            self.program, self.model, self.policy, self.faulting
        )
    }

    fn evaluate(
        &self,
        index: usize,
        seed: u64,
        oracle: &OracleConfig,
        shrink: bool,
    ) -> (u64, Vec<CampaignFinding>) {
        let mut batch = BatchChecker::new();
        let findings = file_findings(index, seed, self, shrink, |c| {
            check_case(c, oracle, &mut batch)
        });
        (batch.misses(), findings)
    }
}

/// Runs the campaign on `workers` threads through the shared loop
/// (`run_cases`). The report is independent of `workers`.
pub fn run_campaign_with_workers(cfg: &FuzzConfig, workers: usize) -> FuzzReport {
    let mut report = FuzzReport {
        seed: cfg.seed,
        cases: cfg.cases,
        ..FuzzReport::default()
    };
    let (findings, unique) = run_cases(cfg, workers, |case: &FuzzCase, misses| {
        report.model_cases[model_index(case.model)] += 1;
        report.split_stream_cases += u64::from(case.policy == DrainPolicy::SplitStream);
        report.faulting_cases += u64::from(!case.faulting.is_empty());
        report.overlay_cases += u64::from(case.overlay);
        report.axiom_enumerations += misses;
    });
    report.findings = findings;
    report.unique_cases = unique;
    report
}

/// `model`'s position in [`ConsistencyModel::ALL`] (the report's
/// per-model counter slot).
pub(crate) fn model_index(model: ConsistencyModel) -> usize {
    ConsistencyModel::ALL
        .into_iter()
        .position(|m| m == model)
        .expect("model is one of ALL")
}

/// Runs the campaign with the default worker count
/// ([`ise_par::worker_count`]).
pub fn run_campaign(cfg: &FuzzConfig) -> FuzzReport {
    run_campaign_with_workers(cfg, ise_par::worker_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_litmus::machine::SeededBug;
    use ise_litmus::parse_litmus;

    fn small(cases: usize) -> FuzzConfig {
        FuzzConfig {
            cases,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn case_seeds_are_a_stable_stream() {
        assert_eq!(case_seed(1, 0), case_seed(1, 0));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
    }

    #[test]
    fn a_healthy_campaign_is_clean() {
        let report = run_campaign_with_workers(&small(80), 2);
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.cases, 80);
        assert_eq!(report.model_cases.iter().sum::<u64>(), 80);
    }

    #[test]
    fn seeded_bug_findings_render_and_reparse() {
        let cfg = FuzzConfig {
            // Master seed 47's stream exposes the drain bug by index 35.
            seed: 47,
            oracle: OracleConfig {
                seeded_bug: Some(SeededBug::PcDrainReorder),
                run_sim: false,
                ..OracleConfig::default()
            },
            ..small(60)
        };
        let report = run_campaign_with_workers(&cfg, 2);
        assert!(!report.clean(), "the seeded bug was never caught");
        for f in &report.findings {
            assert_eq!(f.kind, FindingKind::AxiomViolation);
            let text = render_litmus(&to_parsed(f));
            let back = parse_litmus(&text).expect("reproducer reparses");
            assert_eq!(back.test.program, f.case.program);
            if f.case.model != ConsistencyModel::Sc {
                assert_eq!(back.forbidden, f.outcomes);
                assert!(!back.forbidden.is_empty());
            }
        }
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let cfg = small(60);
        let a = run_campaign_with_workers(&cfg, 1).to_registry().render();
        let b = run_campaign_with_workers(&cfg, 4).to_registry().render();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_cases_share_one_evaluation() {
        // A degenerate generator (one thread, one statement, one
        // location, values in {0, 1}) collides constantly, so the
        // campaign must evaluate far fewer cells than it reports cases —
        // and still render identically for every worker count.
        let cfg = FuzzConfig {
            gen: GenConfig {
                max_threads: 1,
                max_stmts_per_thread: 1,
                max_total_stmts: 1,
                max_locs: 1,
                max_value: 1,
                fault_prob: 0.0,
                overlay_prob: 0.0,
                split_stream_prob: 0.0,
                ..GenConfig::default()
            },
            ..small(120)
        };
        let report = run_campaign_with_workers(&cfg, 2);
        assert_eq!(report.cases, 120);
        assert!(
            report.unique_cases < report.cases,
            "no collisions in {} degenerate cases",
            report.cases
        );
        assert_eq!(report.model_cases.iter().sum::<u64>(), 120);
        assert_eq!(
            report.to_registry().render(),
            run_campaign_with_workers(&cfg, 1).to_registry().render(),
            "dedupe must not perturb the report"
        );
    }
}
