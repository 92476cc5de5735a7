//! The paper's experiments as one table: [`PAPER`] holds, per figure or
//! reconstructed experiment, its name, the paper section, the claim, and
//! one function that builds the data, runs the systems and registers
//! labelled curves and checks on a `Sheet`. A check is a measured
//! value, a comparison and a threshold — never a pre-evaluated boolean —
//! so a failure prints what was measured. [`run`] does the rest for every
//! entry: aligned tables, ASCII charts, CSVs into `STEMS_RESULTS_DIR`,
//! `[PASS|FAIL]` lines, and `PAPER_RESULTS.json`. `cargo test` walks the
//! same table (one test per entry), so a routing change that bends a
//! paper shape fails tier-1 in every CI cell.
//!
//! Every eddy configuration an entry runs goes through `eddy`, which
//! also holds it to what no policy may change: the exact result multiset
//! of the reference executor, and zero Table 2 violations with the
//! constraint checker on, under each [`RoutingPolicyKind`].

use crate::json::{Fields, Json};
use crate::{chart, dominance_fraction, linearity_deviation, render_canonical};
use std::collections::HashMap;
use std::error::Error;
use std::path::Path;
use stems_baseline::{
    index_join, pipelined_shj, symmetric_hash_join, ArrivalStream, BaselineRun, IndexJoinParams,
    PipelineStage, ShjParams,
};
use stems_catalog::{reference, Catalog, IndexSpec, QuerySpec, ScanSpec, SourceId, TableDef};
use stems_core::{EddyExecutor, ExecConfig, Report, RoutingPolicyKind, StemOptions};
use stems_datagen::gen::ColGen::{self, Mod, ModShuffled, Serial, Uniform};
use stems_datagen::{Table3, Table3Config, TableBuilder};
use stems_sim::{secs, secs_f, to_secs, Metrics, Series, Time};
use stems_sql::parse_query;
use stems_types::{CmpOp, ColRef, PredId, Predicate, TableIdx, TableSet, Value};

/// What an entry's function returns: an error is a set-up that did not
/// build or a series nobody recorded, and fails the entry.
type Outcome = Result<(), Box<dyn Error>>;

/// One figure (or reconstructed experiment) of the paper.
pub struct Experiment {
    /// The command-line name (`stems-bench paper <name>`).
    pub name: &'static str,
    /// Where the paper makes the claim.
    pub section: &'static str,
    /// What the paper says, the systems compared and the expected shapes.
    pub claim: &'static str,
    /// Builds the data, runs the systems, registers curves and checks.
    run: fn(&mut Sheet) -> Outcome,
}

/// A comparison: how it prints, and whether `measured cmp threshold`
/// holds — which a NaN measurement never does.
type Cmp = (&'static str, fn(&f64, &f64) -> bool);
const LT: Cmp = ("<", f64::lt);
const LE: Cmp = ("<=", f64::le);
const EQ: Cmp = ("==", f64::eq);
const GE: Cmp = (">=", f64::ge);
const GT: Cmp = (">", f64::gt);

/// One claim of the paper as data: it holds iff `measured cmp threshold`.
struct Check {
    claim: String,
    measured: f64,
    cmp: Cmp,
    threshold: f64,
}

impl Check {
    fn holds(&self) -> bool {
        (self.cmp.1)(&self.measured, &self.threshold)
    }
}

/// Points per curve in `PAPER_RESULTS.json`: a fixed grid over each
/// panel's horizon, so the document's size does not follow the data's.
const GRID: usize = 20;

/// What one entry registered: its printed panels and notes in order, its
/// curves as they go into the document, its CSV files and its checks.
#[derive(Default)]
struct Sheet {
    text: String,
    curves: Vec<Json>,
    csvs: Vec<(String, String)>,
    checks: Vec<Check>,
    /// Prefixed to every claim registered while it is set (a grid point).
    scope: String,
    error: Option<String>,
}

impl Sheet {
    fn note(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// One figure panel: labelled curves over `[0, horizon]`, printed as
    /// a `rows`-row table and a chart.
    fn panel(
        &mut self,
        title: &str,
        y_label: &str,
        horizon: Time,
        rows: usize,
        curves: &[(&str, &Series)],
    ) {
        self.text
            .push_str(&crate::series_table(title, horizon, rows, curves));
        self.note(chart(title, y_label, horizon, curves));
        for (label, series) in curves {
            let grid = series.sample_grid(horizon, GRID).into_iter();
            self.curves.push(Json::Obj(vec![
                ("panel", Json::str(title)),
                ("label", Json::str(*label)),
                ("horizon_s", Json::Float(to_secs(horizon), 6)),
                (
                    "values",
                    Json::List(grid.map(|(_, v)| Json::Float(v, 1)).collect()),
                ),
            ]));
        }
    }

    /// Queue `file`: the named series of `metrics` on `n + 1` grid rows.
    fn csv(
        &mut self,
        file: &str,
        metrics: &Metrics,
        names: &[&str],
        horizon: Time,
        n: usize,
    ) -> Outcome {
        for name in names {
            curve(metrics, name)?;
        }
        let text = metrics.to_csv(names, horizon, n);
        self.csvs.push((file.to_string(), text));
        Ok(())
    }

    fn check(&mut self, claim: &str, measured: f64, cmp: Cmp, threshold: f64) {
        self.checks.push(Check {
            claim: format!("{}{claim}", self.scope),
            measured,
            cmp,
            threshold,
        });
    }

    /// "Exact result set" is the multiset, not the count: `who` produced
    /// `got`, the reference executor `want`, both in canonical form.
    fn exact(&mut self, who: &str, got: &[Vec<Value>], want: &[Vec<Value>]) {
        let mut counts: HashMap<String, i64> = HashMap::new();
        for row in render_canonical(got) {
            *counts.entry(row).or_default() += 1;
        }
        for row in render_canonical(want) {
            *counts.entry(row).or_default() -= 1;
        }
        let differing: u64 = counts.values().map(|n| n.unsigned_abs()).sum();
        let claim = format!("{who}: rows differing from the reference executor's result multiset");
        self.check(&claim, differing as f64, EQ, 0.0);
    }

    fn passed(&self) -> bool {
        self.error.is_none() && self.checks.iter().all(Check::holds)
    }

    /// The entry's printed report: panels and notes, then one
    /// `[PASS|FAIL]` line per check with what was measured.
    fn render(&self) -> String {
        let show = |x: f64| format!("{x:.*}", if x == x.trunc() { 0 } else { 4 });
        let mut out = self.text.clone();
        for c in &self.checks {
            let verdict = if c.holds() { "PASS" } else { "FAIL" };
            let (claim, cmp) = (&c.claim, c.cmp.0);
            let (measured, threshold) = (show(c.measured), show(c.threshold));
            out += &format!("  [{verdict}] {claim} — measured {measured} {cmp} {threshold}\n");
        }
        if let Some(e) = &self.error {
            out += &format!("  [FAIL] {e}\n");
        }
        out
    }

    /// The entry's part of `PAPER_RESULTS.json`.
    fn json(&self, e: &Experiment) -> Json {
        let checks = self.checks.iter().map(|c| {
            Json::Obj(vec![
                ("claim", Json::str(&c.claim)),
                ("measured", Json::Float(c.measured, 6)),
                ("cmp", Json::str(c.cmp.0)),
                ("threshold", Json::Float(c.threshold, 6)),
                ("pass", Json::Bool(c.holds())),
            ])
        });
        let mut fields: Fields = vec![
            ("name", Json::str(e.name)),
            ("section", Json::str(e.section)),
            ("curves", Json::List(self.curves.clone())),
            ("checks", Json::List(checks.collect())),
        ];
        if let Some(e) = &self.error {
            fields.push(("error", Json::str(e)));
        }
        Json::Obj(fields)
    }
}

impl Experiment {
    /// Run the entry. An error does not escape: it is the sheet's last
    /// `[FAIL]` line, named after the entry.
    fn sheet(&self) -> Sheet {
        let mut sheet = Sheet::default();
        let (name, section, claim) = (self.name, self.section, self.claim);
        sheet.note(format!("\n== {name} — paper {section} ==\n{claim}"));
        if let Err(e) = (self.run)(&mut sheet) {
            sheet.error = Some(format!("{name}: {e}"));
        }
        sheet
    }
}

/// Run the selected entries: print each report, write its CSVs, and write
/// the results document — to `$STEMS_BENCH_OUT`, or to
/// `PAPER_RESULTS.json` when the whole table ran. False if any check
/// failed or any file could not be written.
pub fn run(selected: &[&Experiment]) -> bool {
    let whole = selected.len() == PAPER.len();
    let json = std::env::var("STEMS_BENCH_OUT")
        .ok()
        .or_else(|| whole.then(|| "PAPER_RESULTS.json".to_string()));
    run_to(selected, json.as_deref())
}

fn run_to(selected: &[&Experiment], json: Option<&str>) -> bool {
    let (mut ok, mut checks, mut entries) = (true, 0, Vec::new());
    for e in selected {
        let sheet = e.sheet();
        print!("{}", sheet.render());
        ok &= sheet.passed();
        checks += sheet.checks.len();
        for (file, text) in &sheet.csvs {
            let path = crate::results_dir().join(file);
            ok &= written(&path, std::fs::write(&path, text));
        }
        entries.push(sheet.json(e));
    }
    if let Some(path) = json {
        let paper = "Using State Modules for Adaptive Query Processing (ICDE 2003)";
        let doc = Json::Obj(vec![
            ("paper", Json::str(paper)),
            ("grid_points", Json::Int(GRID as u64 + 1)),
            ("experiments", Json::List(entries)),
        ]);
        ok &= written(Path::new(path), std::fs::write(path, doc.render()));
    }
    let (entries, verdict) = (
        selected.len(),
        if ok { "all passed" } else { "SOME FAILED" },
    );
    println!("\n{checks} checks over {entries} entries: {verdict}");
    ok
}

/// A write error is a failure of the run, not a line on stderr.
fn written(path: &Path, result: std::io::Result<()>) -> bool {
    match &result {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => println!("  [FAIL] could not write {}: {e}", path.display()),
    }
    result.is_ok()
}

// ---- shared helpers --------------------------------------------------

/// A series by name. A metric nobody recorded (or that was renamed) is
/// an error, not an empty curve that would make a shape check vacuous.
fn curve<'a>(metrics: &'a Metrics, name: &str) -> Result<&'a Series, Box<dyn Error>> {
    let found = metrics.series(name);
    found.ok_or_else(|| format!("no `{name}` series was recorded").into())
}

/// The `n + 1` grid instants of `[0, horizon]`.
fn grid(horizon: Time, n: u64) -> impl Iterator<Item = Time> {
    (0..=n).map(move |i| horizon * i / n)
}

/// A generated table (`key` plus `cols`) registered with one scan.
fn scanned(
    c: &mut Catalog,
    name: &str,
    rows: usize,
    seed: u64,
    cols: &[(&str, ColGen)],
    scan: ScanSpec,
) -> stems_types::Result<SourceId> {
    let mut table = TableBuilder::new(name, rows, seed);
    for (col, gen) in cols {
        table = table.col(col, gen.clone());
    }
    let source = table.register(c)?;
    c.add_scan(source, scan)?;
    Ok(source)
}

/// The benefit/cost policy of §4.3 as the figures configure it.
const BENEFIT_COST: RoutingPolicyKind = RoutingPolicyKind::BenefitCost {
    epsilon: 0.05,
    drop_rate: 0.5,
};

/// One query over one catalog, with the reference executor's answer in
/// canonical form: what every system that runs it is held to.
struct Workload {
    c: Catalog,
    q: QuerySpec,
    want: Vec<Vec<Value>>,
}

/// One eddy configuration, as run: `report` is the configured run an
/// entry draws its curves from; `by_policy` is the same configuration
/// under each routing policy with the Table 2 constraint checker on.
struct Eddy {
    report: Report,
    by_policy: Vec<(&'static str, Report)>,
}

impl Workload {
    fn new(c: Catalog, q: QuerySpec) -> Workload {
        let want = reference::canonical(&c, &q, &reference::execute(&c, &q));
        Workload { c, q, want }
    }

    fn sql(c: Catalog, sql: &str) -> Result<Workload, Box<dyn Error>> {
        let q = parse_query(&c, sql)?;
        Ok(Workload::new(c, q))
    }

    fn run(&self, config: ExecConfig) -> Result<Report, Box<dyn Error>> {
        Ok(EddyExecutor::build(&self.c, &self.q, config)?.run())
    }

    /// Run the query through the eddy under `config` and register what
    /// Theorems 1–2 promise whatever the policy: the reference executor's
    /// result multiset, and no constraint violation, under every routing
    /// policy (`config`'s own parameters where it configures that kind).
    fn eddy(
        &self,
        sheet: &mut Sheet,
        who: &str,
        config: &ExecConfig,
    ) -> Result<Eddy, Box<dyn Error>> {
        let report = self.run(config.clone())?;
        sheet.exact(who, &report.canonical(&self.c, &self.q), &self.want);
        let mut by_policy = Vec::new();
        for (name, mut policy) in [
            ("fixed", RoutingPolicyKind::Fixed { probe_order: None }),
            ("lottery", RoutingPolicyKind::Lottery),
            ("benefit-cost", BENEFIT_COST),
        ] {
            if std::mem::discriminant(&policy) == std::mem::discriminant(&config.policy) {
                policy = config.policy.clone();
            }
            let checked = self.run(ExecConfig {
                policy,
                check_constraints: true,
                ..config.clone()
            })?;
            let who = format!("{who} under {name}, checker on");
            sheet.exact(&who, &checked.canonical(&self.c, &self.q), &self.want);
            let violations = checked.violations.len() as f64;
            sheet.check(&format!("{who}: Table 2 violations"), violations, EQ, 0.0);
            by_policy.push((name, checked));
        }
        Ok(Eddy { report, by_policy })
    }

    /// Hold a static plan's run of the query to the same result multiset.
    fn baseline(&self, sheet: &mut Sheet, who: &str, run: BaselineRun) -> BaselineRun {
        sheet.exact(who, &run.canonical_values(), &self.want);
        run
    }
}

/// The fig 5 static plan: `outer`'s scan drives lookups on column 0 of
/// `inner` through one encapsulated index-join module.
fn index_join_of(outer: (&TableDef, f64, usize), inner: &TableDef, latency_s: f64) -> BaselineRun {
    let (outer, outer_tps, outer_col) = outer;
    index_join(
        &ArrivalStream::from_scan(outer, &ScanSpec::with_rate(outer_tps)),
        inner.rows(),
        &IndexJoinParams {
            lookup_latency_us: secs_f(latency_s),
            hit_cost_us: 1_000,
            outer_instance: TableIdx(0),
            inner_instance: TableIdx(1),
            outer_col,
            inner_col: 0,
        },
    )
}

/// Fig 7's two systems on Table 3's Q1 under `cfg`, and the shape both
/// `fig7` and `robustness` hold them to, at the caller's bars: SteM ahead
/// on ≥ `ahead` of the run, its curve within `linear` of a straight line,
/// the index join's more than `convex` away from one.
fn fig7_shape(
    sheet: &mut Sheet,
    cfg: &Table3Config,
    [ahead, linear, convex]: [f64; 3],
) -> Result<(Report, BaselineRun), Box<dyn Error>> {
    let (c, q, _, _) = Table3::q1(cfg)?;
    let q1 = Workload::new(c, q);
    let stems = q1.eddy(sheet, "SteMs", &ExecConfig::default())?.report;
    let r = (&Table3::r_table(cfg), cfg.q1_r_scan_tps, 1);
    let base = index_join_of(r, &Table3::s_table(cfg), cfg.s_index_latency_s);
    let base = q1.baseline(sheet, "index join", base);

    let horizon = stems.end_time.max(base.end_time);
    let stems_out = curve(&stems.metrics, "results")?;
    let base_out = curve(&base.metrics, "results")?;
    let probes = stems.counter("index_probes") as f64;
    let claim = "SteM index probes coalesce to |distinct a|";
    sheet.check(claim, probes, EQ, cfg.r_distinct as f64);
    let share = dominance_fraction(stems_out, base_out, horizon / 50, horizon, 50);
    let claim = "share of the run with SteM output ahead of the index join";
    sheet.check(claim, share, GE, ahead);
    let deviation = linearity_deviation(stems_out, horizon, 50);
    let claim = "SteM curve nearly linear (max deviation from the straight line)";
    sheet.check(claim, deviation, LT, linear);
    let deviation = linearity_deviation(base_out, horizon, 50);
    let claim = "index join curve strongly convex (max deviation from the straight line)";
    sheet.check(claim, deviation, GT, convex);
    Ok((stems, base))
}

/// Fig 8's three systems on Table 3's Q4 under `cfg`: the benefit/cost
/// hybrid, the index join and the hash join, each held to the exact
/// result multiset.
fn fig8_systems(
    sheet: &mut Sheet,
    cfg: &Table3Config,
) -> Result<(Report, BaselineRun, BaselineRun), Box<dyn Error>> {
    let (c, q, _, _) = Table3::q4(cfg)?;
    let q4 = Workload::new(c, q);
    let config = ExecConfig {
        policy: BENEFIT_COST,
        ..ExecConfig::default()
    };
    let hybrid = q4.eddy(sheet, "hybrid", &config)?.report;
    let (r, t) = (Table3::r_table(cfg), Table3::t_table(cfg));
    let ij = index_join_of((&r, cfg.q4_r_scan_tps, 0), &t, cfg.t_index_latency_s);
    let hj = symmetric_hash_join(
        &ArrivalStream::from_scan(&r, &ScanSpec::with_rate(cfg.q4_r_scan_tps)),
        TableIdx(0),
        0,
        &ArrivalStream::from_scan(&t, &ScanSpec::with_rate(cfg.q4_t_scan_tps)),
        TableIdx(1),
        0,
        &ShjParams::default(),
    );
    let ij = q4.baseline(sheet, "index join", ij);
    let hj = q4.baseline(sheet, "hash join", hj);
    Ok((hybrid, ij, hj))
}

/// The hybrid's smallest margin over `share` of the better static plan
/// (less 5 results of slack), over `points + 1` instants of `[0, horizon]`.
fn margin_over_best([hybrid, ij, hj]: [&Series; 3], share: f64, horizon: Time, points: u64) -> f64 {
    let margin = |t| hybrid.value_at(t) - (share * ij.value_at(t).max(hj.value_at(t)) - 5.0);
    let margins = grid(horizon, points).map(margin);
    margins.fold(f64::INFINITY, f64::min)
}

// ---- the table -------------------------------------------------------

pub static PAPER: [Experiment; 10] = [
    Experiment {
        name: "fig7",
        section: "§4.2, figure 7",
        claim: "Index join improvement through SteMs. Q1: SELECT * FROM R, S WHERE R.a = S.x, \
                a scan on R and an asynchronous index on S.x (Table 3). The index join is the \
                static fig-5 plan: one join module encapsulating a lookup cache and the remote \
                index behind a single input queue. SteMs (fig 6): SteM_R as rendezvous buffer, \
                SteM_S as shared lookup cache, the index AM probed only on cache misses. \
                Expected: index-join output is parabolic (slow while misses dominate), SteMs \
                almost linear and ahead for most of the run, same overall finish; probe curves \
                almost identical, about |distinct R.a| = 250.",
        run: fig7,
    },
    Experiment {
        name: "fig8",
        section: "§4.3, figure 8",
        claim: "Index/hash join hybridization based on costs. Q4: SELECT * FROM R, T WHERE \
                R.key = T.key, a scan on R and both a scan and an index AM on T (Table 3). The \
                index join lets R drive the T index; the hash join is a binary SHJ over both \
                scans; the hybrid is the eddy with SteMs and the benefit/cost policy, free to \
                route each bounced R tuple to the T index or back to the scan side. Expected: \
                the index join wins the first seconds; the hash join catches up as the tables \
                fill and beats it handily overall; the hybrid tracks the best of the two \
                throughout and completes slightly after the hash join, because the eddy keeps \
                sending a small fraction of the R tuples to the T index to explore.",
        run: fig8,
    },
    Experiment {
        name: "competition",
        section: "§3.2, §4 point 2",
        claim: "Competitive access methods (tech-report-only, reconstructed): SteMs allow the \
                eddy to efficiently learn between competitive access methods, while doing \
                almost no redundant work. S is served by two mirror scans — a fast one that \
                stalls mid-query and a slow steady one. Both build into the same SteM, so \
                duplicates are absorbed at build time and whichever copy arrives first wins. \
                Expected: racing tracks the best single AM throughout, ends no later than \
                either, and the redundant work is bounded by |S| absorbed duplicates.",
        run: competition,
    },
    Experiment {
        name: "spanning_tree",
        section: "§3.4, §4 point 3",
        claim: "Dynamic spanning-tree selection for cyclic queries (tech-report-only, \
                reconstructed). The triangle A ⋈ B ⋈ C has a predicate on every pair; a \
                traditional plan picks a spanning tree up front, and if a source on it stalls \
                the entire query blocks. B, the middle of the chain tree, delivers nothing \
                until 60 s. Dynamic: the eddy may probe along any edge. Chain A–B,B–C: both \
                edges need B. Tree A–B,A–C: one live edge. Expected: the dynamic eddy forms \
                A⋈C partials during the stall without being told which tree is safe, and \
                tracks the live tree; the chain tree makes no progress.",
        run: spanning_tree,
    },
    Experiment {
        name: "reorder",
        section: "§4.1, §4 point 5",
        claim: "Adaptive reordering under user interest (tech-report-only, reconstructed): \
                SteMs on tables with index AMs bounce back any probe tuple that satisfies a \
                predicate prioritized by the user, which speeds up the output of prioritized \
                results. Fig-7-style Q1 (R scan drives an index-only S); the user is \
                interested in R.a < 30, 20% of the tuples. Expected: the time to the k-th \
                interesting result drops sharply when prioritized tuples jump module queues; \
                total results and completion time stay almost unchanged.",
        run: reorder,
    },
    Experiment {
        name: "nary_shj",
        section: "§2.3, figure 2",
        claim: "n-ary SHJ through SteMs vs pipelined binary SHJs: the n-way SHJ stores only \
                singleton tuples in hash tables, whereas the traditional pipeline of binary \
                SHJs materializes intermediate result tuples from joins below the root. A \
                3-way chain with a fan-out first join makes A⋈B much larger than its inputs. \
                Expected: comparable output curves; memory differs by roughly the size of the \
                intermediate relation.",
        run: nary_shj,
    },
    Experiment {
        name: "grace_hybrid",
        section: "§3.1",
        claim: "SHJ, Grace and Hybrid-Hash by SteM implementation choice: withholding build \
                bounce-backs and releasing them clustered by hash partition turns the routing \
                into a Grace hash join; keeping a prefix of partitions memory-resident yields \
                Hybrid-Hash; bouncing everything immediately is the symmetric hash join. Same \
                query, data and policy — only the SteM options differ. Clustered probes get a \
                cost discount (I/O locality). Expected: Grace finishes sooner while SHJ \
                streams results from the start (frequent probes give interactive responses \
                early on, occasional probes reduce completion time); Hybrid sits between.",
        run: grace_hybrid,
    },
    Experiment {
        name: "buildfirst",
        section: "§3.5",
        claim: "Relaxing BuildFirst for a huge single-scan table: when one input is much \
                larger than the others it is better to build SteMs on the small tables and \
                probe the large table's tuples directly into them — a temporary index on one \
                side of the join only. Chain R(small) ⋈ S(small) ⋈ T(huge): by default all \
                of T builds into SteM_T; relaxed (no_stem on T), T tuples probe directly and \
                re-probe under LastMatchTimeStamp until the S side is covered. Expected: \
                both exact; the relaxed run holds an order of magnitude less state.",
        run: buildfirst,
    },
    Experiment {
        name: "robustness",
        section: "§4.2–4.3 (ablation)",
        claim: "Do the fig-7 and fig-8 shapes depend on our constants? The paper's curves \
                were measured once, on one machine, with one seed; the reproduction targets \
                shapes, so both headline claims are re-derived over a grid of seeds, scan \
                rates and index latencies (at slightly wider bars) and must hold at every \
                point.",
        run: robustness,
    },
    Experiment {
        name: "selection_order",
        section: "§1",
        claim: "Adaptive selection ordering, the eddy behaviour the SteM architecture \
                inherits (dynamically reconsidering the ordering of modules on a per-tuple \
                basis). One scanned table, two selections: wide passes ~90% and is declared \
                first, narrow passes ~5%. A static plan in declared order pays 1 + P(wide) ≈ \
                1.9 SM applications per tuple; an adaptive eddy learns narrow's selectivity \
                and pays 1 + P(narrow) ≈ 1.05. Both orders are legal under the constraints; \
                only the policy differs.",
        run: selection_order,
    },
];

fn fig7(sheet: &mut Sheet) -> Outcome {
    let cfg = Table3Config::default();
    sheet.note(format!(
        "Q1 = R({} rows, {} distinct a) ⋈ S on R.a = S.x; S index latency {}s, R scan {} tps",
        cfg.r_rows, cfg.r_distinct, cfg.s_index_latency_s, cfg.q1_r_scan_tps
    ));
    let (stems, base) = fig7_shape(sheet, &cfg, [0.9, 0.05, 0.15])?;
    let horizon = stems.end_time.max(base.end_time);
    for (title, y_label, name) in [
        (
            "Figure 7(i): number of result tuples over time",
            "result tuples",
            "results",
        ),
        (
            "Figure 7(ii): number of index probes over time",
            "index probes",
            "index_probes",
        ),
    ] {
        let curves = [
            ("SteM", curve(&stems.metrics, name)?),
            ("IndexJoin", curve(&base.metrics, name)?),
        ];
        sheet.panel(title, y_label, horizon, 16, &curves);
    }
    let names = ["results", "index_probes"];
    sheet.csv("fig7_results.csv", &stems.metrics, &names, horizon, 100)?;
    sheet.csv("fig7_baseline.csv", &base.metrics, &names, horizon, 100)?;

    let probes = base.metrics.counter("index_probes") as f64;
    let claim = "index join probes coalesce to |distinct a| as well";
    sheet.check(claim, probes, EQ, cfg.r_distinct as f64);
    let (stems_end, base_end) = (stems.end_time as f64, base.end_time as f64);
    let claim = "completion times differ by < 10% of the index join's";
    sheet.check(claim, (stems_end - base_end).abs() / base_end, LT, 0.10);
    Ok(())
}

fn fig8(sheet: &mut Sheet) -> Outcome {
    let cfg = Table3Config::default();
    sheet.note(format!(
        "Q4 = R({} rows, scan {} tps) ⋈ T({} rows, scan {} tps + index {}s) on key",
        cfg.r_rows, cfg.q4_r_scan_tps, cfg.t_rows, cfg.q4_t_scan_tps, cfg.t_index_latency_s
    ));
    let (hybrid, ij, hj) = fig8_systems(sheet, &cfg)?;
    let hy = curve(&hybrid.metrics, "results")?;
    let ij_out = curve(&ij.metrics, "results")?;
    let hj_out = curve(&hj.metrics, "results")?;
    let curves = [
        ("hybrid", hy),
        ("index join", ij_out),
        ("hash join", hj_out),
    ];
    for (panel, horizon) in [("(i) first 30s", secs(30)), ("(ii) first 200s", secs(200))] {
        let title = format!("Figure 8{panel}: number of results output");
        sheet.panel(&title, "results", horizon, 15, &curves);
    }
    let names = [
        "results",
        "index_probes",
        "am_probe_choices",
        "policy_drops",
    ];
    sheet.csv("fig8_hybrid.csv", &hybrid.metrics, &names, secs(220), 110)?;
    for (file, run) in [("fig8_index_join.csv", &ij), ("fig8_hash_join.csv", &hj)] {
        sheet.csv(file, &run.metrics, &["results"], secs(220), 110)?;
    }
    sheet.note(format!(
        "hybrid routing: {} index probes chosen, {} drops, {} index lookups issued, \
         {} fresh / {} dup index builds",
        hybrid.counter("am_probe_choices"),
        hybrid.counter("policy_drops"),
        hybrid.counter("index_probes"),
        hybrid.counter("am_fresh_builds"),
        hybrid.counter("am_dup_builds"),
    ));

    let share = dominance_fraction(ij_out, hj_out, secs(2), secs(20), 18);
    let claim = "index join initially outperforms the hash join (share of 2s–20s it leads)";
    sheet.check(claim, share, GE, 0.9);
    let claim = "hash join beats the index join handily overall (completion time ratio)";
    sheet.check(claim, hj.end_time as f64 / ij.end_time as f64, LE, 0.85);
    let margin = margin_over_best([hy, ij_out, hj_out], 0.9, secs(200), 50);
    let claim = "hybrid tracks the best of both: smallest margin over 90% of max(index, hash) \
                 less 5";
    sheet.check(claim, margin, GE, 0.0);
    let ratio = hybrid.end_time as f64 / hj.end_time as f64;
    let claim = "hybrid completes slightly after the hash join (completion time ratio)";
    sheet.check(&format!("{claim}: not before"), ratio, GE, 1.0);
    sheet.check(&format!("{claim}: within 25%"), ratio, LE, 1.25);
    // "The eddy keeps sending a small fraction of the R tuples to probe
    // into the T index throughout the processing to explore." R tuples
    // exist as routable probers only while the R scan runs (~59 s):
    // exploration must span that window, not stop once the scan side wins.
    let probes = curve(&hybrid.metrics, "index_probes")?;
    let late = probes.last_value() - probes.value_at(secs(50));
    let claim = "exploration spans the whole R-processing window: index probes issued";
    sheet.check(claim, probes.last_value(), GT, 50.0);
    sheet.check(&format!("{claim} after 50s"), late, GT, 0.0);
    Ok(())
}

fn competition(sheet: &mut Sheet) -> Outcome {
    const S_ROWS: usize = 500;
    sheet.note(format!(
        "R(500) ⋈ S({S_ROWS}); S mirrored by a fast scan (100 tps, stalled 2s–40s) and a slow \
         scan (20 tps)"
    ));
    let mut runs = Vec::new();
    for (who, fast, slow) in [
        ("both AMs", true, true),
        ("fast only", true, false),
        ("slow only", false, true),
    ] {
        let mut c = Catalog::new();
        let r_cols = [("a", Mod(S_ROWS as i64))];
        scanned(&mut c, "R", 500, 11, &r_cols, ScanSpec::with_rate(400.0))?;
        let s = TableBuilder::new("S", S_ROWS, 12)
            .col("v", Serial)
            .register(&mut c)?;
        if fast {
            let stalled = ScanSpec::with_rate(100.0).stalled_during(secs(2), secs(40));
            c.add_scan(s, stalled)?;
        }
        if slow {
            c.add_scan(s, ScanSpec::with_rate(20.0))?;
        }
        let query = Workload::sql(c, "SELECT * FROM R r, S s WHERE r.a = s.key")?;
        runs.push(query.eddy(sheet, who, &ExecConfig::default())?);
    }
    let [racing, fast_only, slow_only] = &runs[..] else {
        unreachable!("three configurations")
    };
    let ra = curve(&racing.report.metrics, "results")?;
    let fo = curve(&fast_only.report.metrics, "results")?;
    let so = curve(&slow_only.report.metrics, "results")?;
    let horizon = runs.iter().map(|r| r.report.end_time).max().unwrap_or(0);
    let curves = [("both AMs", ra), ("fast only", fo), ("slow only", so)];
    let title = "results over time (source stall 2s–40s)";
    sheet.panel(title, "results", horizon, 16, &curves);
    let names = ["results", "duplicates_absorbed", "scanned"];
    let metrics = &racing.report.metrics;
    sheet.csv("exp_competition.csv", metrics, &names, horizon, 100)?;

    // A stalled mirror keeps scanning (and being absorbed) long after the
    // last result: completion is the time of the last result.
    let last = |s: &Series| to_secs(s.end_time().unwrap_or(0));
    for (other, name) in [(fo, "fast-only"), (so, "slow-only")] {
        let share = dominance_fraction(ra, other, 0, horizon, 60);
        let claim = "racing AMs track the best single AM: share of the run at or above";
        sheet.check(&format!("{claim} {name}"), share, GE, 0.95);
        let claim = format!("racing emits its last result no later than {name} (seconds)");
        sheet.check(&claim, last(ra), LE, last(other));
    }
    let configured = [("the configured policy", &racing.report)];
    let by_policy = racing.by_policy.iter().map(|(name, r)| (*name, r));
    for (policy, report) in configured.into_iter().chain(by_policy) {
        let absorbed = report.counter("duplicates_absorbed") as f64;
        let claim = format!("redundant work bounded under {policy}: duplicates absorbed");
        sheet.check(&format!("{claim} > 0"), absorbed, GT, 0.0);
        sheet.check(&format!("{claim} ≤ |S|"), absorbed, LE, S_ROWS as f64);
    }
    let gained = fo.value_at(secs(35)) - fo.value_at(secs(10));
    let claim = "fast-only flatlines during the stall (results gained 10s→35s)";
    sheet.check(claim, gained, LT, 1.0);
    Ok(())
}

fn spanning_tree(sheet: &mut Sheet) -> Outcome {
    sheet.note("cyclic A ⋈ B ⋈ C (all pairwise predicates); B stalled 0s–60s");
    let mut c = Catalog::new();
    let v = [("v", Mod(40))];
    // A and C trickle in over ~40s so partial-result formation is
    // observable *during* B's stall; B is unavailable until 60s.
    scanned(&mut c, "A", 120, 21, &v, ScanSpec::with_rate(3.0))?;
    let stalled = ScanSpec::with_rate(60.0).stalled_during(0, secs(60));
    scanned(&mut c, "B", 120, 22, &v, stalled)?;
    scanned(&mut c, "C", 120, 23, &v, ScanSpec::with_rate(3.0))?;
    let sql = "SELECT * FROM A a, B b, C c WHERE a.v = b.v AND b.v = c.v AND a.v = c.v";
    let query = Workload::sql(c, sql)?;
    let (a, b, c) = (TableIdx(0), TableIdx(1), TableIdx(2));
    let mut run = |who, tree: Option<Vec<(TableIdx, TableIdx)>>| {
        let config = ExecConfig {
            probe_edges: tree,
            ..ExecConfig::default()
        };
        query.eddy(sheet, who, &config).map(|e| e.report)
    };
    let dynamic = run("dynamic", None)?;
    // Blocked: every edge of the chain tree involves the stalled B.
    let blocked = run("chain A-B,B-C", Some(vec![(a, b), (b, c)]))?;
    // Live: the A–C edge keeps working during the stall.
    let live = run("tree A-B,A-C", Some(vec![(a, b), (a, c)]))?;

    let dy = curve(&dynamic.metrics, "results")?;
    let bl = curve(&blocked.metrics, "results")?;
    let li = curve(&live.metrics, "results")?;
    let dy2 = curve(&dynamic.metrics, "span2_formed")?;
    let bl2 = curve(&blocked.metrics, "span2_formed")?;
    let horizon = dynamic.end_time.max(blocked.end_time).max(live.end_time);
    let full = [("dynamic", dy), ("chain A-B,B-C", bl), ("tree A-B,A-C", li)];
    let title = "full results over time (B stalled until 60s)";
    sheet.panel(title, "results", horizon, 16, &full);
    let partial = [("dynamic", dy2), ("chain A-B,B-C", bl2)];
    let title = "intermediate (2-table) tuples formed";
    sheet.panel(title, "tuples", horizon, 16, &partial);
    let names = ["results", "span2_formed"];
    sheet.csv(
        "exp_spanning_tree.csv",
        &dynamic.metrics,
        &names,
        horizon,
        100,
    )?;

    let formed = dy2.value_at(secs(55)) - dy2.value_at(secs(5));
    let claim = "dynamic keeps forming partial results during the stall (2-table tuples, 5s→55s)";
    sheet.check(claim, formed, GT, 0.0);
    let claim = "the blocked chain tree makes no progress at all during the stall";
    let at_55 = bl2.value_at(secs(55));
    sheet.check(&format!("{claim}: 2-table tuples at 55s"), at_55, EQ, 0.0);
    let at_55 = bl.value_at(secs(55));
    sheet.check(&format!("{claim}: results at 55s"), at_55, EQ, 0.0);
    let gap = |t| (dy.value_at(t) - li.value_at(t)).abs();
    let widest = grid(horizon, 40).map(gap).fold(0.0, f64::max);
    let claim = "dynamic matches the live tree without knowing the stall in advance (largest gap \
                 in results, bar 5% of the total + 3)";
    sheet.check(claim, widest, LE, 0.05 * query.want.len() as f64 + 3.0);
    Ok(())
}

fn reorder(sheet: &mut Sheet) -> Outcome {
    const R_ROWS: usize = 600;
    const DISTINCT: i64 = 150;
    const INTEREST_BOUND: i64 = 30; // a < 30 ⇒ 20% of tuples
    sheet.note(format!(
        "Q1-style R({R_ROWS}) ⋈ S({DISTINCT}, index-only, 0.5s); user interest: R.a < \
         {INTEREST_BOUND}"
    ));
    let mut c = Catalog::new();
    let r_cols = [("a", ModShuffled(DISTINCT))];
    scanned(&mut c, "R", R_ROWS, 31, &r_cols, ScanSpec::with_rate(100.0))?;
    let s = TableBuilder::new("S", DISTINCT as usize, 32)
        .col("v", Serial)
        .register(&mut c)?;
    // S is reachable only through its (slow) index on key.
    c.add_index(s, IndexSpec::new(vec![0], secs_f(0.5)))?;
    let query = Workload::sql(c, "SELECT * FROM R r, S s WHERE r.a = s.key")?;
    // A standalone predicate, not part of the query.
    let interest = Predicate::selection(
        PredId(0),
        ColRef::new(TableIdx(0), 1),
        CmpOp::Lt,
        Value::Int(INTEREST_BOUND),
    );
    let plain = query.eddy(sheet, "plain", &ExecConfig::default())?.report;
    let config = ExecConfig {
        priority_pred: Some(interest.clone()),
        ..ExecConfig::default()
    };
    let boosted = query.eddy(sheet, "prioritized", &config)?.report;

    // When each interesting result was emitted: result `i` (from 1) went
    // out when the `results` counter reached `i`.
    let interesting_times = |report: &Report| -> Result<Vec<Time>, Box<dyn Error>> {
        let results = curve(&report.metrics, "results")?;
        let emitted = (1..).zip(&report.results);
        let interesting = emitted.filter(|(_, tuple)| interest.eval(tuple) == Some(true));
        let times = interesting.map(|(i, _)| results.time_reaching(i as f64));
        let times: Option<Vec<Time>> = times.collect();
        Ok(times.ok_or("a result the `results` counter never reached")?)
    };
    let (plain_at, boosted_at) = (interesting_times(&plain)?, interesting_times(&boosted)?);
    let n = plain_at.len();
    if n < 2 || boosted_at.len() != n {
        return Err(format!("{n} vs {} interesting results", boosted_at.len()).into());
    }
    let total = query.want.len();
    sheet.note(format!("interesting results: {n} of {total}"));

    let horizon = plain.end_time.max(boosted.end_time);
    let priority = curve(&boosted.metrics, "priority_results")?;
    let all = curve(&plain.metrics, "results")?;
    let curves = [("prioritized run", priority), ("all results (plain)", all)];
    let title = "prioritized results delivered over time";
    sheet.panel(title, "results", horizon, 16, &curves);
    let names = ["results", "priority_results"];
    sheet.csv("exp_reorder.csv", &boosted.metrics, &names, horizon, 100)?;

    let median = n / 2 - 1;
    let speedup = plain_at[median] as f64 / boosted_at[median] as f64;
    let claim = "median interesting result arrives ≥ 2× sooner (plain time ÷ prioritized time)";
    sheet.check(claim, speedup, GE, 2.0);
    let (last_plain, last_boosted) = (to_secs(plain_at[n - 1]), to_secs(boosted_at[n - 1]));
    let claim = "all interesting results arrive sooner (seconds to the last; bar: the plain run's)";
    sheet.check(claim, last_boosted, LT, last_plain);
    let ratio = boosted.end_time as f64 / plain.end_time as f64;
    let claim = "prioritization does not hurt completion time (completion time ratio)";
    sheet.check(claim, ratio, LE, 1.05);
    Ok(())
}

fn nary_shj(sheet: &mut Sheet) -> Outcome {
    const A_ROWS: usize = 200;
    const B_ROWS: usize = 100;
    const C_ROWS: usize = 75;
    const V_DISTINCT: i64 = 20; // A⋈B fan-out: 200×100/20 = 1000 intermediates
    sheet.note(format!(
        "A({A_ROWS}) ⋈ B({B_ROWS}) on v ({V_DISTINCT} distinct) ⋈ C({C_ROWS}) on w — \
         intermediate A⋈B has {} tuples",
        A_ROWS * B_ROWS / V_DISTINCT as usize
    ));
    let mut c = Catalog::new();
    let (v, w) = (("v", Mod(V_DISTINCT)), ("w", Mod(C_ROWS as i64 / 3)));
    let tables = [
        ("A", A_ROWS, 100.0, vec![v.clone()]),
        ("B", B_ROWS, 80.0, vec![v, w.clone()]),
        ("C", C_ROWS, 70.0, vec![w]),
    ];
    let mut streams = Vec::new();
    for (i, (name, rows, rate, cols)) in tables.iter().enumerate() {
        let scan = ScanSpec::with_rate(*rate);
        let source = scanned(&mut c, name, *rows, 41 + i as u64, cols, scan.clone())?;
        streams.push(ArrivalStream::from_scan(c.table_expect(source), &scan));
    }
    let sql = "SELECT * FROM A a, B b, C c WHERE a.v = b.v AND b.w = c.w";
    let query = Workload::sql(c, sql)?;

    // n-ary SHJ via eddy + SteMs (fig 2(iii)).
    let stems = query.eddy(sheet, "SteMs", &ExecConfig::default())?.report;
    // Pipeline of binary SHJs (fig 2(i)): (A ⋈ B on v) ⋈ C on w.
    let stage = |i: usize, col, prev_col| PipelineStage {
        stream: streams[i].clone(),
        instance: TableIdx(i as u8),
        col,
        prev_instance: TableIdx(i as u8 - 1),
        prev_col,
    };
    let stages = [stage(1, 1, 1), stage(2, 1, 2)];
    let pipe = pipelined_shj((&streams[0], TableIdx(0)), &stages, &ShjParams::default());
    let pipe = query.baseline(sheet, "binary pipeline", pipe);

    let horizon = stems.end_time.max(pipe.end_time);
    let s_out = curve(&stems.metrics, "results")?;
    let p_out = curve(&pipe.metrics, "results")?;
    let s_mem = curve(&stems.metrics, "stem_bytes_total")?;
    let p_mem = curve(&pipe.metrics, "mem_bytes")?;
    let out = [("SteMs (n-ary)", s_out), ("binary pipeline", p_out)];
    sheet.panel("results over time", "results", horizon, 12, &out);
    let mem = [("SteMs (n-ary)", s_mem), ("binary pipeline", p_mem)];
    sheet.panel("join-state memory (bytes)", "bytes", horizon, 12, &mem);
    let names = ["results", "stem_bytes_total"];
    sheet.csv(
        "exp_nary_shj_stems.csv",
        &stems.metrics,
        &names,
        horizon,
        100,
    )?;
    let names = ["results", "mem_bytes"];
    sheet.csv(
        "exp_nary_shj_pipeline.csv",
        &pipe.metrics,
        &names,
        horizon,
        100,
    )?;

    let claim = "singletons vs intermediates: pipeline memory ÷ SteM memory at the end";
    sheet.check(claim, p_mem.last_value() / s_mem.last_value(), GE, 3.0);
    let gap = (s_out.value_at(horizon / 2) - p_out.value_at(horizon / 2)).abs();
    let claim = "output progress comparable (gap in results at mid-run, bar 15% of the total + 5)";
    sheet.check(claim, gap, LE, 0.15 * query.want.len() as f64 + 5.0);
    Ok(())
}

fn grace_hybrid(sheet: &mut Sheet) -> Outcome {
    const ROWS: usize = 3000;
    sheet.note(format!(
        "R({ROWS}) ⋈ S({ROWS}), probe cost 400µs, clustered discount 0.2"
    ));
    let mut c = Catalog::new();
    let v = [("v", ModShuffled(ROWS as i64 / 2))];
    // Fast arrivals: the run is probe-service-bound, so the join
    // algorithm (not the network) determines completion time.
    scanned(&mut c, "R", ROWS, 51, &v, ScanSpec::with_rate(20_000.0))?;
    scanned(&mut c, "S", ROWS, 52, &v, ScanSpec::with_rate(20_000.0))?;
    let query = Workload::sql(c, "SELECT * FROM R r, S s WHERE r.v = s.v")?;
    let mut run = |who, mem_partitions: Option<usize>| {
        let mut config = ExecConfig::default();
        // Probe cost dominates so the algorithm choice matters; clustered
        // probes enjoy locality.
        config.costs.stem_probe_us = 400;
        config.costs.clustered_probe_discount = 0.2;
        if let Some(mem_partitions) = mem_partitions {
            config.plan.default_stem = StemOptions {
                deferred_bounce: true,
                partitions: 8,
                mem_partitions,
                ..StemOptions::default()
            };
        }
        query.eddy(sheet, who, &config).map(|e| e.report)
    };
    let shj = run("SHJ", None)?;
    let grace = run("Grace", Some(0))?;
    let hybrid = run("Hybrid-Hash", Some(4))?;

    let sh = curve(&shj.metrics, "results")?;
    let gr = curve(&grace.metrics, "results")?;
    let hy = curve(&hybrid.metrics, "results")?;
    let horizon = shj.end_time.max(grace.end_time).max(hybrid.end_time);
    let curves = [("SHJ", sh), ("Grace", gr), ("Hybrid", hy)];
    sheet.panel("results over time", "results", horizon, 14, &curves);
    for (file, report) in [("shj", &shj), ("grace", &grace), ("hybrid", &hybrid)] {
        let file = format!("exp_grace_hybrid_{file}.csv");
        sheet.csv(&file, &report.metrics, &["results"], horizon, 100)?;
    }

    // Interactivity: when the first result, and the first 1% of results,
    // arrive (the paper's online metric rewards early partial results).
    let first = |s: &Series| to_secs(s.points().first().map_or(0, |(t, _)| *t));
    let first_percent = |r: &Report| r.time_to_fraction(0.01).map_or(f64::NAN, to_secs);
    let [shj_end, grace_end, hybrid_end] = [&shj, &grace, &hybrid].map(|r| to_secs(r.end_time));
    let claim = "Grace finishes sooner than SHJ — clustered locality (seconds; bar: SHJ's)";
    sheet.check(claim, grace_end, LT, shj_end);
    let claim = "SHJ streams results far earlier than Grace (Grace's first result ÷ SHJ's)";
    sheet.check(claim, first(gr) / first(sh), GE, 5.0);
    let claim = "Hybrid is between the two on both axes (seconds)";
    let axis = format!("{claim}: first result no later than Grace's");
    sheet.check(&axis, first(hy), LE, first(gr));
    let axis = format!("{claim}: completes no later than SHJ");
    sheet.check(&axis, hybrid_end, LE, shj_end);
    let axis = format!("{claim}: completes no sooner than Grace");
    sheet.check(&axis, hybrid_end, GE, grace_end);
    let claim = "first 1% of results arrive sooner under SHJ than under Grace (seconds; bar: \
                 Grace's)";
    sheet.check(claim, first_percent(&shj), LT, first_percent(&grace));
    Ok(())
}

fn buildfirst(sheet: &mut Sheet) -> Outcome {
    const SMALL: usize = 100;
    const HUGE: usize = 20_000;
    sheet.note(format!(
        "R({SMALL}) ⋈ S({SMALL}) ⋈ T({HUGE}); relaxation: T probes without building (§3.5)"
    ));
    let mut c = Catalog::new();
    let v = [("v", Serial)];
    scanned(&mut c, "R", SMALL, 61, &v, ScanSpec::with_rate(1000.0))?;
    scanned(&mut c, "S", SMALL, 62, &v, ScanSpec::with_rate(1000.0))?;
    let w = [("w", Mod(SMALL as i64))];
    scanned(&mut c, "T", HUGE, 63, &w, ScanSpec::with_rate(5000.0))?;
    // R.key = S.key (1:1), S.key = T.w (1:200)
    let sql = "SELECT * FROM R r, S s, T t WHERE r.key = s.key AND s.key = t.w";
    let query = Workload::sql(c, sql)?;
    let default_run = query
        .eddy(sheet, "BuildFirst", &ExecConfig::default())?
        .report;
    let mut config = ExecConfig::default();
    config.plan.no_stem = TableSet::single(TableIdx(2));
    let relaxed_run = query.eddy(sheet, "relaxed", &config)?.report;

    let d_mem = curve(&default_run.metrics, "stem_bytes_total")?;
    let r_mem = curve(&relaxed_run.metrics, "stem_bytes_total")?;
    let d_out = curve(&default_run.metrics, "results")?;
    let r_out = curve(&relaxed_run.metrics, "results")?;
    let horizon = default_run.end_time.max(relaxed_run.end_time);
    let out = [("BuildFirst", d_out), ("relaxed (§3.5)", r_out)];
    sheet.panel("results over time", "results", horizon, 12, &out);
    let mem = [("BuildFirst", d_mem), ("relaxed (§3.5)", r_mem)];
    sheet.panel("SteM memory (bytes)", "bytes", horizon, 12, &mem);
    let names = ["results", "stem_bytes_total"];
    sheet.csv(
        "exp_buildfirst.csv",
        &relaxed_run.metrics,
        &names,
        horizon,
        100,
    )?;
    let unparked = relaxed_run.counter("unparked");
    sheet.note(format!("relaxed re-probes (unparks): {unparked}"));

    let claim = "relaxed run holds ≤ 10% of the default's SteM memory (ratio of final bytes)";
    sheet.check(claim, r_mem.last_value() / d_mem.last_value(), LE, 0.10);
    let (relaxed_end, default_end) = (relaxed_run.end_time as f64, default_run.end_time as f64);
    let claim = "completion times comparable (difference as a share of the default's)";
    sheet.check(
        claim,
        (relaxed_end - default_end).abs() / default_end,
        LE,
        0.30,
    );
    Ok(())
}

fn robustness(sheet: &mut Sheet) -> Outcome {
    const SEEDS: [u64; 3] = [2003, 7, 99];
    // fig 7 grid: seeds × {R scan rate, index latency}.
    for seed in SEEDS {
        for (rate, lat) in [(50.0, 1.6), (25.0, 1.0), (100.0, 2.4)] {
            let cfg = Table3Config {
                seed,
                q1_r_scan_tps: rate,
                s_index_latency_s: lat,
                ..Table3Config::default()
            };
            sheet.scope = format!("fig7 (seed {seed}, scan {rate} tps, latency {lat}s): ");
            fig7_shape(sheet, &cfg, [0.85, 0.08, 0.12])?;
        }
    }
    // fig 8 grid: seeds × rates, keeping R faster than T and the index
    // slower than the T scan overall — the paper's regime.
    for seed in SEEDS {
        for (r_tps, t_tps, lat) in [(17.0, 7.0, 0.18), (25.0, 10.0, 0.15), (12.0, 5.0, 0.25)] {
            let cfg = Table3Config {
                seed,
                q4_r_scan_tps: r_tps,
                q4_t_scan_tps: t_tps,
                t_index_latency_s: lat,
                ..Table3Config::default()
            };
            sheet.scope =
                format!("fig8 (seed {seed}, R {r_tps} tps, T {t_tps} tps, latency {lat}s): ");
            let (hybrid, ij, hj) = fig8_systems(sheet, &cfg)?;
            let curves = [
                curve(&hybrid.metrics, "results")?,
                curve(&ij.metrics, "results")?,
                curve(&hj.metrics, "results")?,
            ];
            let horizon = hybrid.end_time.max(ij.end_time).max(hj.end_time);
            let claim = "hash join completes before the index join (seconds)";
            sheet.check(claim, to_secs(hj.end_time), LT, to_secs(ij.end_time));
            let margin = margin_over_best(curves, 0.85, horizon, 40);
            let claim = "hybrid's smallest margin over 85% of max(index, hash) less 5";
            sheet.check(claim, margin, GE, 0.0);
        }
    }
    Ok(())
}

fn selection_order(sheet: &mut Sheet) -> Outcome {
    const ROWS: usize = 4000;
    sheet.note(format!(
        "{ROWS} tuples × (wide ~90% pass, narrow ~5% pass); declared order is wide-first"
    ));
    let mut c = Catalog::new();
    let cols = [("w", Uniform(0, 99)), ("n", Uniform(0, 99))];
    scanned(&mut c, "R", ROWS, 77, &cols, ScanSpec::with_rate(10_000.0))?;
    // Declared order puts the unselective predicate first — the trap a
    // static left-to-right evaluator falls into.
    let query = Workload::sql(c, "SELECT * FROM R r WHERE r.w >= 10 AND r.n < 5")?;
    let mut run = |who, policy| {
        let config = ExecConfig {
            policy,
            seed: 1,
            ..ExecConfig::default()
        };
        query.eddy(sheet, who, &config).map(|e| e.report)
    };
    let fixed = run("fixed", RoutingPolicyKind::Fixed { probe_order: None })?;
    let adaptive = run(
        "benefit-cost",
        RoutingPolicyKind::BenefitCost {
            epsilon: 0.05,
            drop_rate: 1.0,
        },
    )?;
    let lottery = run("lottery", RoutingPolicyKind::Lottery)?;

    let work = |r: &Report| r.counter("sm_applied") as f64;
    sheet.note("  policy        SM applications   per tuple   results");
    for (name, r) in [
        ("fixed", &fixed),
        ("benefit-cost", &adaptive),
        ("lottery", &lottery),
    ] {
        let (work, results) = (work(r), r.results.len());
        let per_tuple = work / ROWS as f64;
        sheet.note(format!(
            "  {name:<13} {work:>15} {per_tuple:>11.3} {results:>9}"
        ));
    }
    let names = ["sm_applied", "filtered", "results"];
    let horizon = adaptive.end_time;
    sheet.csv(
        "exp_selection_order.csv",
        &adaptive.metrics,
        &names,
        horizon,
        50,
    )?;

    // Static wide-first ⇒ 1 + P(wide) ≈ 1.9 applications per tuple;
    // the narrow-first optimum ⇒ 1 + P(narrow) ≈ 1.05.
    let claim = "fixed declared order pays ~1.9 SM applications per tuple (distance from 1.9)";
    sheet.check(claim, (work(&fixed) / ROWS as f64 - 1.9).abs(), LT, 0.1);
    let claim = "adaptive policy learns narrow-first (SM applications per tuple)";
    sheet.check(claim, work(&adaptive) / ROWS as f64, LE, 1.25);
    let claim = "adaptive saves ≥ 30% of the selection work of the static order (work ratio)";
    sheet.check(claim, work(&adaptive) / work(&fixed), LE, 0.7);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"`/`"panel"`/`"label"`/`"claim"` string of a results
    /// document, in order — a string scan, not a parser.
    fn skeleton(text: &str) -> Vec<(String, String)> {
        let mut pairs = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find("\": \"") {
            let key = rest[..at].rsplit('"').next().unwrap().to_string();
            rest = &rest[at + 4..];
            let value = rest[..rest.find('"').unwrap()].to_string();
            if ["name", "panel", "label", "claim"].contains(&key.as_str()) {
                pairs.push((key, value));
            }
        }
        pairs
    }

    fn committed() -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PAPER_RESULTS.json");
        skeleton(&std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}")))
    }

    /// The gate: the entry runs, every check holds, and the committed
    /// `PAPER_RESULTS.json` carries exactly its curve labels and claims.
    fn holds(name: &str) {
        let e = PAPER.iter().find(|e| e.name == name).expect("in the table");
        let sheet = e.sheet();
        let report = sheet.render();
        let failed: Vec<&str> = report.lines().filter(|l| l.contains("[FAIL]")).collect();
        assert!(sheet.passed() && failed.is_empty(), "{name}: {failed:#?}");

        let committed = committed();
        let is_name = |(key, _): &(String, String)| key == "name";
        let start = committed.iter().position(|p| is_name(p) && p.1 == name);
        let start = start.unwrap_or_else(|| panic!("PAPER_RESULTS.json has no `{name}`"));
        let len = committed[start + 1..].iter().position(is_name);
        let end = len.map_or(committed.len(), |len| start + 1 + len);
        assert_eq!(
            committed[start..end],
            skeleton(&sheet.json(e).render()),
            "PAPER_RESULTS.json does not carry what `{name}` registers: regenerate it with \
             `stems-bench paper all`"
        );
    }

    /// One test per entry, so libtest runs them in parallel.
    macro_rules! one_test_per_entry {
        ($($name:ident)*) => {
            const TESTED: &[&str] = &[$(stringify!($name)),*];
            $(#[test] fn $name() { holds(stringify!($name)); })*
        };
    }
    one_test_per_entry!(fig7 fig8 competition spanning_tree reorder nary_shj grace_hybrid
                        buildfirst robustness selection_order);

    #[test]
    fn the_tests_and_the_committed_results_name_exactly_the_table_entries() {
        let table: Vec<&str> = PAPER.iter().map(|e| e.name).collect();
        assert_eq!(TESTED, table);
        let committed = committed();
        let named = committed.iter().filter(|(key, _)| key == "name");
        assert_eq!(
            named.map(|(_, name)| name.as_str()).collect::<Vec<_>>(),
            table
        );
    }

    /// A gate that cannot fail is not a gate.
    #[test]
    fn a_false_check_or_a_missing_series_fails_the_runner() {
        let false_check = Experiment {
            name: "false_check",
            section: "",
            claim: "",
            run: |sheet| {
                sheet.check("one and a half is below one", 1.5, LT, 1.0);
                sheet.check("one is one", 1.0, EQ, 1.0);
                Ok(())
            },
        };
        let report = false_check.sheet().render();
        let line = "[FAIL] one and a half is below one — measured 1.5000 < 1\n";
        assert!(report.contains(line), "{report}");
        let line = "[PASS] one is one — measured 1 == 1\n";
        assert!(report.contains(line), "{report}");
        assert!(!run_to(&[&false_check], None));

        let missing_series = Experiment {
            name: "missing_series",
            section: "",
            claim: "",
            run: |sheet| sheet.csv("never.csv", &Metrics::new(), &["results"], 1, 1),
        };
        let sheet = missing_series.sheet();
        assert!(sheet.csvs.is_empty() && !sheet.passed());
        let line = "[FAIL] missing_series: no `results` series was recorded\n";
        assert!(sheet.render().contains(line), "{}", sheet.render());
        assert!(!run_to(&[&missing_series], None));

        let disk_full = Err(std::io::Error::other("disk full"));
        assert!(!written(Path::new("fig7.csv"), disk_full));
    }

    #[test]
    fn exact_compares_the_multiset_not_the_count() {
        let rows = |vals: &[i64]| -> Vec<Vec<Value>> {
            vals.iter().map(|v| vec![Value::Int(*v)]).collect()
        };
        let mut sheet = Sheet::default();
        sheet.exact("same", &rows(&[1, 2, 2]), &rows(&[2, 1, 2]));
        sheet.exact("count-equal", &rows(&[1, 2, 2]), &rows(&[1, 1, 2]));
        sheet.check("a NaN holds nothing", f64::NAN, GE, 0.0);
        let measured: Vec<f64> = sheet.checks.iter().map(|c| c.measured).collect();
        assert_eq!(measured[..2], [0.0, 2.0]);
        let held: Vec<bool> = sheet.checks.iter().map(Check::holds).collect();
        assert_eq!(held, [true, false, false]);
    }
}
