//! The serving phase: an `AnnotationService` answers one open-loop
//! session's statements at each rate of a fixed ladder while a second
//! thread streams inserts into the tables those statements read.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bp_storage::{AnnotationService, Database, ExecOptions, QueryResult, Row, Snapshot, Value};

use crate::stats::{mix, percentile, Digest, Ops};
use crate::trace::Tracer;

/// A reference unit offers `REFERENCE_STATEMENTS` at `REFERENCE_RATE`,
/// well below capacity: `session_latency_p50_ms`/`_p99_ms` come from these. At
/// 250/s the few statements that take tens of milliseconds queued enough
/// of the rest to make the median swing by half between runs. The count is
/// a whole number of passes over the `STATEMENTS`, so every unit offers
/// each statement equally often. One statement takes 12-25 ms, about
/// twice the next heaviest, so a unit's p99 is that statement's latency:
/// with three passes it is the middle of its three runs, where with two
/// it was the faster one, and the p99 jumped between 13 and 18 ms.
pub const REFERENCE_RATE: f64 = 100.0;
pub const REFERENCE_STATEMENTS: usize = 3 * STATEMENTS;
/// A ladder unit climbs these rates, `RUNG_SECONDS` each, by a factor of
/// 2^(1/4), and stops at the first rung that misses the latency limit.
/// Near capacity the p99 climbs steeply from one rung to the next, so the
/// interpolated rate moves with where the knee falls between two rungs;
/// with sqrt(2) steps the estimate jumped by a quarter between ladders of
/// one run.
pub const LADDER: [f64; 14] = [
    841.0, 1000.0, 1189.0, 1414.0, 1682.0, 2000.0, 2378.0, 2828.0, 3364.0, 4000.0, 4757.0, 5657.0,
    6727.0, 8000.0,
];
pub const RUNG_SECONDS: f64 = 0.4;
/// A rung meets the limit when its p99 latency, and the latency of its
/// last statement (a growing backlog shows there first), are within it.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// The session re-pins its snapshot every this many statements.
pub const REFRESH_EVERY: usize = 64;
/// Results of every `VERIFY_EVERY`-th snapshot epoch are kept and checked
/// against serial execution on that epoch's snapshot.
pub const VERIFY_EVERY: usize = 4;
/// The writer's offered load: `WRITER_BATCH`-row inserts at this row rate.
pub const WRITER_ROWS_PER_S: f64 = 500.0;
pub const WRITER_BATCH: usize = 64;
/// How many gold queries the session cycles through.
pub const STATEMENTS: usize = 60;

/// The service's inputs: the database, the session's statements, and the
/// rows the writer copies (with fresh integer keys) into the tables the
/// statements read.
pub struct ServeInput {
    pub database: Database,
    /// Where the writer starts in each table's rows; drawn from the
    /// workload seed. The session always starts at the first statement:
    /// a statement's latency depends on how far into the unit it runs (the
    /// snapshot epoch, the writer's installs so far), and with a seeded
    /// start the seed decided where the slowest statement fell, moving the
    /// session p99 by a third between seeds.
    pub offset: usize,
    pub statements: Vec<String>,
    /// The tables the statements read, with the rows the writer copies.
    pub templates: Vec<Template>,
}

/// A table the writer inserts into.
pub struct Template {
    pub table: String,
    /// The rows to copy, with fresh integer keys.
    pub rows: Vec<Row>,
    /// Positions of the primary-key columns.
    pub keys: Vec<usize>,
    /// The writer's step through `rows`: coprime with their count and
    /// about that count over the golden ratio, so a unit's copies are an
    /// even spread over the table wherever the seed starts them. Copying
    /// neighbouring rows let the seed pick the region of the table whose
    /// values the copies repeat, and with it what they cost the statements.
    pub step: usize,
}

/// See `Template::step`.
fn spread_step(n: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut step = ((n as f64 * 0.618_033_988_7) as usize).max(1);
    while gcd(step, n) != 1 {
        step += 1;
    }
    step
}

/// Pick the first `STATEMENTS` gold queries that execute on `database`.
pub fn serve_input(database: &Database, log: &[String], seed: u64, ops: &mut Ops) -> ServeInput {
    let mut statements = Vec::new();
    let mut tables = BTreeSet::new();
    for sql in log {
        if statements.len() == STATEMENTS {
            break;
        }
        let ok = ops
            .run("statement probe", || {
                database.execute_sql_opts(sql, ExecOptions::serial())
            })
            .is_some();
        if ok {
            if let Ok(query) = bp_sql::parse_query(sql) {
                tables.extend(bp_sql::analyze(&query).tables);
            }
            statements.push(sql.clone());
        }
    }
    let templates = tables
        .into_iter()
        .filter_map(|name| {
            let table = database.table(&name)?;
            let keys = database
                .catalog()
                .table(&name)?
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.primary_key)
                .map(|(i, _)| i)
                .collect();
            (!table.rows().is_empty()).then(|| Template {
                step: spread_step(table.rows().len()),
                table: name,
                rows: table.rows().to_vec(),
                keys,
            })
        })
        .collect();
    ServeInput {
        database: database.clone(),
        offset: (mix(seed) % 1_000_003) as usize,
        statements,
        templates,
    }
}

pub struct Rung {
    pub rate: f64,
    pub latency_ms: Vec<f64>,
    /// Latency of the rung's last statement, ms.
    pub last_ms: f64,
}

impl Rung {
    pub fn p99(&self) -> f64 {
        percentile(&self.latency_ms, 99.0)
    }

    /// The larger of the p99 and the last statement's latency: what the
    /// limit is checked against.
    pub fn worst_ms(&self) -> f64 {
        self.p99().max(self.last_ms)
    }

    pub fn meets_limit(&self) -> bool {
        self.worst_ms() <= LATENCY_LIMIT_MS
    }
}

/// The two kinds of serving unit; each runs on a fresh service with the
/// writer streaming throughout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitKind {
    Reference,
    Ladder,
}

impl UnitKind {
    /// How often a rung that misses the latency limit is offered before
    /// the unit stops; the best try counts. A ladder retries once: near
    /// capacity a single stall of the machine of a tenth of a second leaves
    /// a backlog the spare capacity takes most of a rung to drain, and on a
    /// shared machine such stalls decided where single-try ladders stopped.
    pub fn tries(self) -> usize {
        match self {
            UnitKind::Reference => 1,
            UnitKind::Ladder => 2,
        }
    }

    /// (rate, statements) of each rung the unit offers.
    pub fn rungs(self) -> Vec<(f64, usize)> {
        match self {
            UnitKind::Reference => vec![(REFERENCE_RATE, REFERENCE_STATEMENTS)],
            UnitKind::Ladder => LADDER
                .iter()
                .map(|&rate| (rate, (rate * RUNG_SECONDS).round() as usize))
                .collect(),
        }
    }
}

pub struct ServeUnit {
    pub kind: UnitKind,
    pub rungs: Vec<Rung>,
    pub writer_rows: usize,
    /// Time the writer spent building and installing each batch, s. Its
    /// pacing sleeps are not in it, so rows over this time is the rate the
    /// program installs rows at while the session reads.
    pub writer_batch_s: Vec<f64>,
    pub results_identical: bool,
    pub digest: Digest,
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    pub index_scans: u64,
    pub full_scans: u64,
    pub estimated_rows: u64,
    pub actual_rows: u64,
}

/// One epoch's pinned snapshot and the results kept for verification.
struct Epoch {
    snapshot: Snapshot,
    results: Vec<(usize, QueryResult)>,
}

/// Highest rate meeting the latency limit, interpolated (log-log) between
/// the last rung that meets it and the first that does not, so the value
/// moves continuously with the measured p99 instead of jumping a rung.
pub fn max_rate(rungs: &[Rung]) -> f64 {
    let Some(first_fail) = rungs.iter().position(|r| !r.meets_limit()) else {
        return rungs.last().map(|r| r.rate).unwrap_or(f64::NAN);
    };
    if first_fail == 0 {
        let r = &rungs[0];
        return r.rate * LATENCY_LIMIT_MS / r.worst_ms();
    }
    let (lo, hi) = (&rungs[first_fail - 1], &rungs[first_fail]);
    let lo_p = lo.p99().max(1e-3);
    let hi_p = hi.worst_ms().max(LATENCY_LIMIT_MS * 1.0001);
    let frac = (LATENCY_LIMIT_MS.ln() - lo_p.ln()) / (hi_p.ln() - lo_p.ln());
    (lo.rate.ln() + frac.clamp(0.0, 1.0) * (hi.rate.ln() - lo.rate.ln())).exp()
}

/// Spin until `due`. The generator keeps its core busy between statements,
/// so a statement's latency does not include waking an idle core.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One unit: a fresh service over the base database, the unit's rungs
/// issued open-loop by this thread, the writer streaming on a second one.
pub fn serve_unit(
    input: &ServeInput,
    kind: UnitKind,
    ops: &mut Ops,
    tracer: Option<&mut Tracer>,
    origin: Instant,
) -> ServeUnit {
    let service = AnnotationService::new(input.database.clone());
    let stop = AtomicBool::new(false);
    let traced = tracer.is_some();
    let mut tracer = tracer;
    let mut session = service.open_session();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut rungs = Vec::with_capacity(LADDER.len());
    let mut reader_ops = Ops::default();

    let (writer_ops, writer_rows, writer_batch_s, writer_tracer) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_stream(&service, input, &stop, traced, origin));
        let mut issued = 0usize;
        for (rate, count) in kind.rungs() {
            let mut best: Option<Rung> = None;
            for _ in 0..kind.tries() {
                let start = Instant::now();
                let mut latency_ms = Vec::with_capacity(count);
                for i in 0..count {
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    wait_until(due);
                    if issued.is_multiple_of(REFRESH_EVERY) {
                        if issued > 0 {
                            match tracer.as_deref_mut() {
                                None => session.refresh(),
                                Some(tr) => tr.time("storage.refresh", None, || session.refresh()),
                            }
                        }
                        epochs.push(Epoch {
                            snapshot: session.snapshot().clone(),
                            results: Vec::new(),
                        });
                    }
                    let index = issued % input.statements.len();
                    let sql = &input.statements[index];
                    let result: Option<QueryResult> = match tracer.as_deref_mut() {
                        None => reader_ops.run("session statement", || session.execute_sql(sql)),
                        Some(tr) => {
                            tr.set_item(issued as u64);
                            tr.time("storage.execute", None, || {
                                reader_ops.run("session statement", || session.execute_sql(sql))
                            })
                        }
                    };
                    latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                    let epoch = epochs.len() - 1;
                    if let Some(result) = result {
                        if epoch.is_multiple_of(VERIFY_EVERY) {
                            epochs[epoch].results.push((index, result));
                        }
                    }
                    issued += 1;
                }
                let last_ms = latency_ms.last().copied().unwrap_or(f64::NAN);
                let rung = Rung {
                    rate,
                    latency_ms,
                    last_ms,
                };
                let met = rung.meets_limit();
                if best.as_ref().is_none_or(|b| rung.worst_ms() < b.worst_ms()) {
                    best = Some(rung);
                }
                if met {
                    break;
                }
            }
            let rung = best.expect("every rung is tried at least once");
            let met = rung.meets_limit();
            rungs.push(rung);
            if !met {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        writer
            .join()
            .expect("writer thread panicked outside an operation")
    });
    ops.add(reader_ops);
    ops.add(writer_ops);

    // Every kept result must equal a serial run on its epoch's snapshot.
    let mut results_identical = true;
    let mut digest = Digest::default();
    for (e, epoch) in epochs.iter().enumerate() {
        for (index, result) in &epoch.results {
            let got = format!("{result:?}");
            let want = epoch
                .snapshot
                .execute_sql_opts(&input.statements[*index], ExecOptions::serial())
                .map(|r| format!("{r:?}"));
            results_identical &= want.as_deref() == Ok(got.as_str());
            // Epoch 0 is pinned before the writer starts, so its results
            // repeat across runs of one seed.
            if e == 0 {
                digest.feed_str(&got);
            }
        }
    }
    if let (Some(tr), Some(w)) = (tracer, writer_tracer) {
        tr.merge(w);
    }
    let stats = service.cache_stats();
    let access = service.access_path_stats();
    let card = service.cardinality_stats();
    ServeUnit {
        kind,
        rungs,
        writer_rows,
        writer_batch_s,
        results_identical,
        digest,
        hits: stats.hits,
        misses: stats.misses,
        invalidations: stats.invalidations,
        index_scans: access.index_scan,
        full_scans: access.full_scan,
        estimated_rows: card.estimated_rows,
        actual_rows: card.actual_rows,
    }
}

/// The writer: paced `WRITER_BATCH`-row inserts, round-robin over the
/// tables the statements read, until told to stop. Returns its operations,
/// the rows it installed, the time it spent building and installing each
/// batch, and its spans.
fn write_stream(
    service: &AnnotationService,
    input: &ServeInput,
    stop: &AtomicBool,
    traced: bool,
    origin: Instant,
) -> (Ops, usize, Vec<f64>, Option<Tracer>) {
    let mut ops = Ops::default();
    let mut tracer = traced.then(|| Tracer::new(origin));
    let mut rows_written = 0usize;
    let mut batch_s = Vec::new();
    let start = Instant::now();
    let mut batch = 0usize;
    while !stop.load(Ordering::Acquire) && !input.templates.is_empty() {
        let due =
            start + Duration::from_secs_f64((batch * WRITER_BATCH) as f64 / WRITER_ROWS_PER_S);
        while Instant::now() < due && !stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(500));
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let busy_start = Instant::now();
        let Template {
            table,
            rows,
            keys,
            step,
        } = &input.templates[batch % input.templates.len()];
        let new_rows: Vec<Row> = (0..WRITER_BATCH)
            .map(|j| {
                let serial = batch * WRITER_BATCH + j;
                let mut row = rows[(input.offset + serial * step) % rows.len()].clone();
                for &k in keys {
                    if matches!(row[k], Value::Int(_)) {
                        row[k] = Value::Int(1_000_000_000 + serial as i64);
                    }
                }
                row
            })
            .collect();
        let written = match tracer.as_mut() {
            None => ops.run("writer insert", || service.insert(table, new_rows)),
            Some(tr) => {
                tr.set_item(batch as u64);
                tr.time("storage.insert", None, || {
                    ops.run("writer insert", || service.insert(table, new_rows))
                })
            }
        };
        rows_written += written.unwrap_or(0);
        batch_s.push(busy_start.elapsed().as_secs_f64());
        batch += 1;
    }
    (ops, rows_written, batch_s, tracer)
}
