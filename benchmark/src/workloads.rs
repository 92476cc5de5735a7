//! The five workloads: generated catalogs, SQL texts and explicit engine
//! configurations. The engine only ever sees what is generated here from
//! `--seed`; no `ExecConfig` field comes from the environment.

use stems::catalog::{Catalog, IndexSpec, ScanSpec, SourceId, TableDef};
use stems::core::engine::CostModel;
use stems::core::plan::PlanOptions;
use stems::core::{ExecConfig, RoutingPolicyKind};
use stems::datagen::gen::ColGen;
use stems::datagen::TableBuilder;
use stems::sim::{SimRng, Time};
use stems::types::{ColumnType, Schema, Value};

/// Workload names, in the order the driver runs them. `BENCHMARK.json`
/// lists the same five.
pub const NAMES: [&str; 5] = [
    "join_chain",
    "select_memo",
    "server_fold",
    "index_hybrid",
    "join_sharded",
];

/// Queries in the `server_fold` stream, admitted in `SERVER_WAVES` waves
/// `SERVER_WAVE_GAP_US` apart, cycling over `SERVER_CUTS` selection cuts.
pub const SERVER_QUERIES: usize = 32;
const SERVER_WAVES: usize = 4;
const SERVER_WAVE_GAP_US: Time = 5_000;
const SERVER_CUTS: usize = 8;

/// Row filter of the hand-written oracle: `(table position in FROM, row)`.
pub type RowFilter = Box<dyn Fn(usize, &[Value]) -> bool>;

/// What the hash-join oracle needs to know about one SQL text: an
/// equi-join per FROM entry after the first, and the selections.
pub struct OracleQuery {
    /// `joins[i]` attaches table `i + 1`: `(earlier table, its column,
    /// column of table i + 1)`.
    pub joins: Vec<(usize, usize, usize)>,
    pub filter: RowFilter,
}

/// One generated workload: everything an iteration needs.
pub struct Workload {
    pub name: &'static str,
    pub catalog: Catalog,
    /// FROM-order sources of every SQL text (all texts of a workload
    /// share one FROM list).
    pub sources: Vec<SourceId>,
    /// One SQL text for the solo workloads, `SERVER_QUERIES` for the server.
    pub sql: Vec<String>,
    /// Virtual admission time of each text (all 0 for solo workloads).
    pub admit_us: Vec<Time>,
    pub oracle: Vec<OracleQuery>,
    pub config: ExecConfig,
    /// True when the request goes through `QueryServer`.
    pub server: bool,
    /// Logical input rows of one request: rows scanned per SQL text,
    /// summed over the texts.
    pub logical_rows: u64,
    /// Every size that shaped the data, for `results.json`.
    pub sizes: Vec<(&'static str, u64)>,
}

/// Every `ExecConfig` field, spelled out. `ExecConfig::default()` reads
/// `STEMS_*`, so it is never called here.
fn config(
    policy: RoutingPolicyKind,
    batch_size: usize,
    num_shards: usize,
    workers: usize,
) -> ExecConfig {
    ExecConfig {
        policy,
        // The routing policy's own RNG (exploration draws). Fixed: `--seed`
        // varies the data the engine sees, not the engine's settings.
        seed: 2003,
        costs: CostModel {
            stem_build_us: 20,
            stem_probe_us: 30,
            per_match_us: 5,
            sm_us: 10,
            am_accept_us: 10,
            clustered_probe_discount: 1.0,
            shard_parallel_service: false,
        },
        plan: PlanOptions::default(),
        probe_edges: None,
        priority_pred: None,
        batch_size,
        num_shards,
        workers,
        parallel_min_rows: 256,
        fuse_selections: true,
        memo: true,
        memo_bytes: 1 << 20,
        udf_dedup: true,
        max_hops: 1_000_000,
        max_events: 200_000_000,
        max_time: None,
        check_constraints: false,
        trace: false,
        trace_limit: 100_000,
    }
}

const FIXED: RoutingPolicyKind = RoutingPolicyKind::Fixed { probe_order: None };
const BENEFIT_COST: RoutingPolicyKind = RoutingPolicyKind::BenefitCost {
    epsilon: 0.05,
    drop_rate: 1.0,
};

/// Pool workers `join_sharded` may use: `min(nproc, 4)`.
pub fn sharded_workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A distinct, seed-derived generator seed per table.
fn table_seed(seed: u64, table: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(table)
}

/// R(key, a, c) ⋈ S(key, x, y) ⋈ T(key, b) with 1:1 join keys: `a` and
/// `y` are permutations of `0..rows`, `x` and `b` count up, so every probe
/// finds exactly one match, in random order. `c` is `key % 100`.
fn chain_catalog(seed: u64, rows: usize, chunk: usize) -> (Catalog, Vec<SourceId>) {
    let mut catalog = Catalog::new();
    let n = rows as i64;
    let r = TableBuilder::new("R", rows, table_seed(seed, 0))
        .col("a", ColGen::Permutation)
        .col("c", ColGen::Mod(100))
        .register(&mut catalog)
        .expect("R registers");
    let s = TableBuilder::new("S", rows, table_seed(seed, 1))
        .col("x", ColGen::Mod(n))
        .col("y", ColGen::Permutation)
        .register(&mut catalog)
        .expect("S registers");
    let t = TableBuilder::new("T", rows, table_seed(seed, 2))
        .col("b", ColGen::Mod(n))
        .register(&mut catalog)
        .expect("T registers");
    let sources = vec![r, s, t];
    for &src in &sources {
        catalog
            .add_scan(src, ScanSpec::with_rate(1e6).with_chunk(chunk))
            .expect("scan registers");
    }
    (catalog, sources)
}

fn chain_sql(cut: i64) -> String {
    format!("SELECT * FROM R, S, T WHERE R.a = S.x AND S.y = T.b AND R.c < {cut}")
}

fn chain_oracle(cut: i64) -> OracleQuery {
    OracleQuery {
        // R.a (col 1) = S.x (col 1); S.y (col 2) = T.b (col 1).
        joins: vec![(0, 1, 1), (1, 2, 1)],
        filter: Box::new(move |table, row| {
            table != 0 || matches!(row[2], Value::Int(c) if c < cut)
        }),
    }
}

fn chain_workload(
    name: &'static str,
    seed: u64,
    rows: usize,
    chunk: usize,
    config: ExecConfig,
) -> Workload {
    let (catalog, sources) = chain_catalog(seed, rows, chunk);
    Workload {
        name,
        catalog,
        sources,
        sql: vec![chain_sql(50)],
        admit_us: vec![0],
        oracle: vec![chain_oracle(50)],
        config,
        server: false,
        logical_rows: 3 * rows as u64,
        sizes: vec![
            ("rows_per_table", rows as u64),
            ("scan_chunk", chunk as u64),
        ],
    }
}

fn select_memo(seed: u64, scale: usize) -> Workload {
    let r_rows = 80_000 / scale;
    let d_rows = (200 / scale).max(8);
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", r_rows, table_seed(seed, 0))
        .col(
            "a",
            ColGen::Zipf {
                n: 2000,
                theta: 0.9,
            },
        )
        .col("f", ColGen::FloatMod(1000))
        .col("s", ColGen::StrMod(500))
        .col("k", ColGen::Mod(d_rows as i64))
        .register(&mut catalog)
        .expect("R registers");
    let d = TableBuilder::new("D", d_rows, table_seed(seed, 1))
        .col("g", ColGen::Mod(16))
        .register(&mut catalog)
        .expect("D registers");
    for src in [r, d] {
        catalog
            .add_scan(src, ScanSpec::with_rate(1e6).with_chunk(64))
            .expect("scan registers");
    }
    let sieve = stems::types::UdfSpec::hash_sieve(500, 200);
    Workload {
        name: "select_memo",
        catalog,
        sources: vec![r, d],
        sql: vec![
            "SELECT * FROM R, D WHERE R.k = D.key AND SIEVE(R.a, 500, 200) \
             AND R.f < 400.0 AND R.s <> 's7' AND D.g < 8"
                .to_string(),
        ],
        admit_us: vec![0],
        oracle: vec![OracleQuery {
            // R.k (col 4) = D.key (col 0).
            joins: vec![(0, 4, 0)],
            filter: Box::new(move |table, row| match table {
                0 => {
                    sieve.verdict(&row[1])
                        && matches!(row[2], Value::Float(f) if f < 400.0)
                        && matches!(&row[3], Value::Str(s) if &**s != "s7")
                }
                _ => matches!(row[1], Value::Int(g) if g < 8),
            }),
        }],
        config: config(BENEFIT_COST, 64, 1, 1),
        server: false,
        logical_rows: (r_rows + d_rows) as u64,
        sizes: vec![
            ("r_rows", r_rows as u64),
            ("d_rows", d_rows as u64),
            ("sieve_distinct", 2000),
            ("sieve_cost_us", 200),
        ],
    }
}

fn server_fold(seed: u64, scale: usize) -> Workload {
    let rows = 3_000 / scale;
    let (catalog, sources) = chain_catalog(seed, rows, 64);
    let cut = |i: usize| 20 + 10 * (i % SERVER_CUTS) as i64;
    Workload {
        name: "server_fold",
        catalog,
        sources,
        sql: (0..SERVER_QUERIES).map(|i| chain_sql(cut(i))).collect(),
        admit_us: (0..SERVER_QUERIES)
            .map(|i| (i / (SERVER_QUERIES / SERVER_WAVES)) as Time * SERVER_WAVE_GAP_US)
            .collect(),
        oracle: (0..SERVER_QUERIES).map(|i| chain_oracle(cut(i))).collect(),
        config: config(FIXED, 64, 1, 1),
        server: true,
        logical_rows: (SERVER_QUERIES * 3 * rows) as u64,
        sizes: vec![
            ("rows_per_table", rows as u64),
            ("queries", SERVER_QUERIES as u64),
            ("waves", SERVER_WAVES as u64),
            ("distinct_cuts", SERVER_CUTS as u64),
        ],
    }
}

/// Paper Table 3 query Q4's shape at ten times its size: R scans in, T
/// arrives by a slower scan *and* answers index lookups on `key`, so the
/// router chooses per tuple between probing the index and waiting.
fn index_hybrid(seed: u64, scale: usize) -> Workload {
    let rows = 10_000 / scale;
    let mut catalog = Catalog::new();
    let r = TableBuilder::new("R", rows, table_seed(seed, 0))
        .col("a", ColGen::ModShuffled((rows / 4) as i64))
        .register(&mut catalog)
        .expect("R registers");
    let mut keys: Vec<i64> = (0..rows as i64).collect();
    SimRng::new(table_seed(seed, 1)).shuffle(&mut keys);
    let t = catalog
        .add_table(
            TableDef::new("T", Schema::of(&[("key", ColumnType::Int)]))
                .with_rows(keys.into_iter().map(|k| vec![Value::Int(k)]).collect()),
        )
        .expect("T registers");
    catalog
        .add_scan(r, ScanSpec::with_rate(1_700.0))
        .expect("scan registers");
    catalog
        .add_scan(t, ScanSpec::with_rate(700.0))
        .expect("scan registers");
    catalog
        .add_index(t, IndexSpec::new(vec![0], 180_000))
        .expect("index registers");
    Workload {
        name: "index_hybrid",
        catalog,
        sources: vec![r, t],
        sql: vec!["SELECT * FROM R, T WHERE R.a = T.key".to_string()],
        admit_us: vec![0],
        oracle: vec![OracleQuery {
            joins: vec![(0, 1, 0)],
            filter: Box::new(|_, _| true),
        }],
        config: config(BENEFIT_COST, 64, 1, 1),
        server: false,
        logical_rows: 2 * rows as u64,
        sizes: vec![
            ("rows_per_table", rows as u64),
            ("r_distinct", (rows / 4) as u64),
            ("index_latency_us", 180_000),
        ],
    }
}

/// Generate workload `name` from `seed`. `scale` divides the row counts
/// (1 = full size; the oracle cross-check and `--quick` use larger values).
pub fn generate(name: &str, seed: u64, scale: usize) -> Option<Workload> {
    let scale = scale.max(1);
    Some(match name {
        "join_chain" => chain_workload(
            "join_chain",
            seed,
            20_000 / scale,
            64,
            config(FIXED, 64, 1, 1),
        ),
        "select_memo" => select_memo(seed, scale),
        "server_fold" => server_fold(seed, scale),
        "index_hybrid" => index_hybrid(seed, scale),
        "join_sharded" => chain_workload(
            "join_sharded",
            seed,
            30_000 / scale,
            1024,
            config(FIXED, 1024, 8, sharded_workers()),
        ),
        _ => return None,
    })
}
