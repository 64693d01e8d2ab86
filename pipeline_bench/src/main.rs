//! Curation-pipeline benchmark: runs one workload through the public API of
//! the workspace crates, checks the outputs, and prints one `@result` JSON
//! line. `run.py` builds this binary, runs it in a child process and turns
//! that line into the benchmark's result.
//!
//! Every workload runs units of the pipeline's three phases (curation,
//! validation, serving under writes), so every end-to-end metric is
//! measured on every workload. Each phase reads the same inputs on every
//! workload; the workload chooses how many units of each phase its
//! schedule holds. A run interleaves the units of the three phases, so each
//! metric's samples are spread over the whole run rather than one stretch
//! of it, and reports medians over them. The traced run (`--trace 1`) runs
//! one unit of each kind, untraced and traced.
//!
//! Usage: `pipeline-bench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--spans-out <path>]`

mod curate;
mod serve;
mod stats;
mod trace;
mod validate;

use std::collections::BTreeMap;
use std::time::Instant;

use bp_core::{Project, TaskConfig};
use bp_datasets::{BenchmarkKind, CorpusScale, GeneratedBenchmark};

use crate::curate::{curate_pass, CurateCounts, CuratePass};
use crate::serve::{max_rate, serve_input, serve_unit, ServeInput, ServeUnit, UnitKind};
use crate::stats::{
    mean, median, peak_rss_mb, percentile, retain_freed_memory, supported_tail, Ops,
};
use crate::trace::Tracer;
use crate::validate::{
    grade_unit, serial_reference, study_digest, study_unit, validate_traced, CacheTotals,
    GradeUnit, StudyUnit, ValidateInput, FIGURE1_MODELS,
};

/// A unit of work.
#[derive(Clone, Copy, Debug)]
enum Unit {
    Curate,
    Study,
    /// Grading of one Figure-1 model.
    Grade(usize),
    Serve(UnitKind),
}

const REFERENCE: Unit = Unit::Serve(UnitKind::Reference);
const LADDER: Unit = Unit::Serve(UnitKind::Ladder);

/// One workload: the units one pass of its schedule runs, in order. Every
/// schedule grades each Figure-1 model once and holds at least three units
/// of every other kind, spread over the pass so that each metric's samples
/// meet the machine at several moments; the phase a workload is named
/// after gets the most units. Why each workload exists is recorded in
/// BENCHMARK.json.
struct Workload {
    name: &'static str,
    schedule: &'static [Unit],
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "validate_enterprise",
        schedule: &[
            Unit::Study,
            Unit::Grade(0),
            REFERENCE,
            LADDER,
            Unit::Curate,
            Unit::Grade(1),
            Unit::Study,
            REFERENCE,
            Unit::Curate,
            LADDER,
            Unit::Grade(2),
            Unit::Study,
            REFERENCE,
            Unit::Grade(3),
            Unit::Curate,
            LADDER,
        ],
    },
    Workload {
        name: "serve_under_writes",
        schedule: &[
            REFERENCE,
            LADDER,
            Unit::Grade(0),
            Unit::Study,
            REFERENCE,
            Unit::Grade(1),
            Unit::Curate,
            LADDER,
            Unit::Grade(2),
            REFERENCE,
            Unit::Study,
            Unit::Curate,
            LADDER,
            Unit::Grade(3),
            Unit::Study,
            Unit::Curate,
            REFERENCE,
        ],
    },
];

/// The corpus (database and SQL log) is one fixed enterprise warehouse and
/// its log, as Beaver is in the paper, generated from the seed the
/// repository's paper-artifact binaries use. The workload seed drives what
/// curation and serving do with it: candidate sampling, the annotator's
/// feedback, and where the writer's rows start.
const CORPUS_SEED: u64 = 2026;
/// Log entries of the laptop-scale Beaver log a curation pass curates:
/// enough for the knowledge base to pass a thousand examples.
const CURATE_ITEMS: usize = 1000;
/// Scale and size of the project the validation phase validates. Its
/// curation and the models' predictions are part of the fixed corpus
/// (`CORPUS_SEED`): a few of its items are many-to-many joins that cost
/// seconds each, and a seed that decided which items those are would
/// decide the validation metrics.
const VALIDATE_SCALE: CorpusScale = CorpusScale::Medium;
const VALIDATE_ITEMS: usize = 80;
/// The traced run fails unless the replayed layer spans account for this
/// share of the real calls they sit under (`trace.*_coverage`)...
const COVERAGE_BAND: (f64, f64) = (0.8, 1.2);
/// ...and unless traced calls take this share of the untraced calls' time
/// (`trace.*_vs_untraced`, `trace.overhead_*`). Each compares two single
/// measurements, which this runner's drift alone moved by a fifth.
const TRACED_BAND: (f64, f64) = (0.67, 1.5);
/// A run sets up this many times and reports the median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut named = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        named.insert(key, value);
    }
    let get = |k: &str| {
        named
            .get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let name = get("workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let parse_err = |k: &str| format!("--{k} is not a number");
    let seconds: f64 = get("seconds")?.parse().map_err(|_| parse_err("seconds"))?;
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|_| parse_err("seed"))?,
        seconds: seconds.max(0.0),
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        spans_out: named.get("spans-out").cloned(),
    })
}

/// What the three phases read.
struct Inputs {
    curate: GeneratedBenchmark,
    validate: ValidateInput,
    serve: ServeInput,
    generate_s: f64,
    setup_s: f64,
    drafts_ok: bool,
}

/// Set up what the phases read: generate their corpora, ingest them,
/// curate the project the validation phase validates, and pick the serving
/// phase's statements.
fn setup(seed: u64, threads: usize, ops: &mut Ops) -> Inputs {
    let started = Instant::now();
    let beaver = |n, scale| {
        GeneratedBenchmark::generate_scaled(BenchmarkKind::Beaver, n, CORPUS_SEED, scale)
    };
    let curate = beaver(CURATE_ITEMS, CorpusScale::Laptop);
    let validate_corpus = beaver(VALIDATE_ITEMS, VALIDATE_SCALE);
    let generate_s = started.elapsed().as_secs_f64();
    let config = TaskConfig::default().with_seed(CORPUS_SEED);
    let mut project = Project::new("validate", config);
    project.ingest_benchmark(&validate_corpus);
    ops.checkpoint(3 * validate_corpus.log.len() as u64);
    let drafts_ok = curate::curate_untimed(&mut project, CORPUS_SEED, ops);
    let validate = ValidateInput {
        project,
        schema_ambiguity: validate_corpus.profile.schema_ambiguity,
        seed: CORPUS_SEED,
        threads,
    };
    // The session reads the curated log's database and gold queries.
    let log: Vec<String> = curate.log.iter().map(|e| e.sql.clone()).collect();
    let serve = serve_input(&curate.database, &log, seed, ops);
    Inputs {
        curate,
        validate,
        serve,
        generate_s,
        setup_s: started.elapsed().as_secs_f64(),
        drafts_ok,
    }
}

/// Operations a unit attempts, for the crash accounting.
fn unit_ops(unit: Unit, inputs: &Inputs) -> u64 {
    let ops = match unit {
        Unit::Curate => 3 * inputs.curate.log.len() + 1,
        Unit::Study => inputs.validate.project.finalized_count(),
        Unit::Grade(_) => inputs.validate.project.log().len(),
        Unit::Serve(kind) => {
            let statements: usize = kind.rungs().iter().map(|(_, n)| n).sum();
            // Inserts over the unit's nominal duration plus a margin.
            let seconds: f64 = kind.rungs().iter().map(|(r, n)| *n as f64 / r).sum();
            statements + (2.0 * seconds * serve::WRITER_ROWS_PER_S) as usize / serve::WRITER_BATCH
        }
    };
    ops as u64
}

#[derive(Default)]
struct Results {
    curate: Vec<CuratePass>,
    studies: Vec<StudyUnit>,
    grades: Vec<GradeUnit>,
    serve: Vec<ServeUnit>,
}

impl Results {
    fn run(&mut self, unit: Unit, inputs: &Inputs, seed: u64, ops: &mut Ops, origin: Instant) {
        ops.checkpoint(unit_ops(unit, inputs));
        match unit {
            Unit::Curate => self
                .curate
                .push(curate_pass(&inputs.curate, seed, ops, None)),
            Unit::Study => self.studies.push(study_unit(&inputs.validate, ops)),
            Unit::Grade(model) => self.grades.push(grade_unit(&inputs.validate, model, ops)),
            Unit::Serve(kind) => {
                self.serve
                    .push(serve_unit(&inputs.serve, kind, ops, None, origin))
            }
        }
    }

    fn serve_units(&self, kind: UnitKind) -> impl Iterator<Item = &ServeUnit> {
        self.serve.iter().filter(move |u| u.kind == kind)
    }
}

/// Metric name, value, unit, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics. Each is a median over the run's units of its
/// kind (the session latencies pool the reference units' samples), so a
/// unit the machine slows down does not decide the run's figure.
fn end_to_end(setups: &[f64], peak_mb: f64, r: &Results) -> Metrics {
    let per = |rates: Vec<f64>| median(&rates);
    note_tail("draft", r.curate[0].draft_ms.len());
    let session: Vec<f64> = r
        .serve_units(UnitKind::Reference)
        .flat_map(|u| u.rungs[0].latency_ms.iter().copied())
        .collect();
    let per_unit = r.serve_units(UnitKind::Reference).next();
    note_tail(
        "per-unit session",
        per_unit.map_or(0, |u| u.rungs[0].latency_ms.len()),
    );
    vec![
        ("setup_s", median(setups), "s"),
        (
            "draft_latency_p50_ms",
            per(r.curate.iter().map(|p| median(&p.draft_ms)).collect()),
            "ms",
        ),
        (
            "draft_latency_p99_ms",
            per(r
                .curate
                .iter()
                .map(|p| percentile(&p.draft_ms, 99.0))
                .collect()),
            "ms",
        ),
        (
            "curate_items_per_s",
            per(r.curate.iter().map(|p| p.items as f64 / p.loop_s).collect()),
            "items/s",
        ),
        (
            "backtranslate_items_per_s",
            per(r.studies.iter().map(|s| s.items as f64 / s.secs).collect()),
            "items/s",
        ),
        (
            "grade_items_per_s",
            per(r.grades.iter().map(|g| g.items as f64 / g.secs).collect()),
            "items/s",
        ),
        ("session_latency_p50_ms", median(&session), "ms"),
        (
            // The median over reference units of each unit's p99: a stall
            // of the machine lifts the tail of the unit it falls in, and
            // pooled, two such units decided the run's p99.
            "session_latency_p99_ms",
            per(r
                .serve_units(UnitKind::Reference)
                .map(|u| percentile(&u.rungs[0].latency_ms, 99.0))
                .collect()),
            "ms",
        ),
        (
            "max_session_qps",
            per(r
                .serve_units(UnitKind::Ladder)
                .map(|u| max_rate(&u.rungs))
                .collect()),
            "stmt/s",
        ),
        (
            // Rows per batch over the unit's median batch building and
            // installing time, in the reference units: they last the same
            // on every run, so their batches meet the same table sizes,
            // and a batch the scheduler preempts does not decide the rate.
            "writer_rows_per_s",
            per(r
                .serve_units(UnitKind::Reference)
                .map(|u| {
                    u.writer_rows as f64 / u.writer_batch_s.len() as f64 / median(&u.writer_batch_s)
                })
                .collect()),
            "rows/s",
        ),
        ("peak_rss_mb", peak_mb, "MiB"),
    ]
}

fn note_tail(what: &str, n: usize) {
    if supported_tail(n).is_none_or(|p| p < 99.0) {
        eprintln!("note: {n} {what} latency samples leave fewer than ten beyond the p99");
    }
}

/// The checks the untraced run makes on the program's outputs. The serial
/// grading reference costs as much as two threaded gradings, so the run
/// checks the model `reference` its seed picks; the traced run checks all
/// four.
fn checks(inputs: &Inputs, r: &Results, reference: &GradeUnit) -> Vec<(&'static str, bool)> {
    let curate_first = r.curate.first().map(|p| p.digest.hex());
    let studies: Vec<Option<String>> = r
        .studies
        .iter()
        .map(|s| s.study.as_ref().map(|s| study_digest(s).hex()))
        .collect();
    vec![
        (
            "every draft has CANDIDATES_PER_QUERY candidates",
            inputs.drafts_ok && r.curate.iter().all(|p| p.drafts_ok),
        ),
        (
            "export_json round-trips through import_json",
            r.curate.iter().all(|p| p.export_round_trips),
        ),
        (
            "study histogram total equals the finalized count",
            r.studies.iter().all(|s| s.histogram_matches_finalized),
        ),
        (
            "threaded ExecutionAccuracyReport equals the serial reference",
            reference.report.is_some()
                && r.grades
                    .iter()
                    .filter(|g| g.model == reference.model)
                    .all(|g| g.report == reference.report),
        ),
        (
            "session results equal serial execution on the pinned snapshot",
            r.serve.iter().all(|u| u.results_identical),
        ),
        (
            "repeated units produce identical outputs",
            r.curate
                .iter()
                .all(|p| Some(p.digest.hex()) == curate_first)
                && studies.iter().all(|d| d.is_some() && *d == studies[0])
                && r.grades.iter().all(|g| {
                    let first = r.grades.iter().find(|f| f.model == g.model);
                    first.is_some_and(|f| f.report == g.report)
                })
                && r.serve
                    .iter()
                    .all(|u| u.digest.hex() == r.serve[0].digest.hex()),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_result(
    ops: Ops,
    checks: &[(&'static str, bool)],
    digests: &[(&str, String)],
    metrics: &Metrics,
) {
    let checks = checks
        .iter()
        .map(|(name, ok)| format!("{}:{ok}", json_str(name)))
        .collect::<Vec<_>>()
        .join(",");
    let digests = digests
        .iter()
        .map(|(name, hex)| format!("{}:{}", json_str(name), json_str(hex)))
        .collect::<Vec<_>>()
        .join(",");
    let metrics = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "@result {{\"attempted\":{},\"failed\":{},\"checks\":{{{checks}}},\"digest\":{{{digests}}},\"metrics\":{{{metrics}}}}}",
        ops.attempted, ops.failed
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipeline-bench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let origin = Instant::now();
    let mut ops = Ops::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut generates = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let built = setup(args.seed, threads, &mut ops);
        setups.push(built.setup_s);
        generates.push(built.generate_s);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    if args.trace {
        retain_freed_memory();
        traced_run(&args, &inputs, &generates, &mut ops, origin);
        return;
    }

    // The serial grading reference goes first: it meets the heavy items
    // one at a time, so the peak memory read after it repeats from run to
    // run (with two grading threads the peak depends on which heavy items
    // the threads happen to run at once), and the timed units that follow
    // all run in a heap those items have grown.
    let model = (args.seed % FIGURE1_MODELS.len() as u64) as usize;
    ops.checkpoint(unit_ops(Unit::Grade(model), &inputs));
    let reference = serial_reference(&inputs.validate, model, &mut ops);
    let peak_mb = peak_rss_mb();
    retain_freed_memory();

    // Whole passes of the schedule: at least one, and another only while
    // one as long as the last still fits in `--seconds`.
    let w = args.workload;
    let mut results = Results::default();
    let window = Instant::now();
    let mut passes = 0;
    let mut pass_s = 0.0;
    while passes == 0 || window.elapsed().as_secs_f64() + pass_s <= args.seconds {
        let pass = Instant::now();
        for &unit in w.schedule {
            results.run(unit, &inputs, args.seed, &mut ops, origin);
        }
        pass_s = pass.elapsed().as_secs_f64();
        passes += 1;
    }
    eprintln!(
        "{}: {passes} passes in {:.1}s after a {:.2}s set-up, {threads} threads",
        w.name,
        window.elapsed().as_secs_f64(),
        median(&setups)
    );
    let mut validate_digest = results.studies[0]
        .study
        .as_ref()
        .map(study_digest)
        .unwrap_or_default();
    validate_digest.feed_str(&format!("{:?}", reference.report));
    let checks = checks(&inputs, &results, &reference);
    print_result(
        ops,
        &checks,
        &[
            ("curate", results.curate[0].digest.hex()),
            ("validate", validate_digest.hex()),
            ("serve", results.serve[0].digest.hex()),
        ],
        &end_to_end(&setups, peak_mb, &results),
    );
}

/// The traced run: per phase, untraced units and then the same units
/// traced; the per-layer metrics come from the traced units' spans.
fn traced_run(args: &Args, inputs: &Inputs, generates: &[f64], ops: &mut Ops, origin: Instant) {
    let mut tr = Tracer::new(origin);
    let mut untraced = Results::default();

    let seed = args.seed;
    untraced.run(Unit::Curate, inputs, seed, ops, origin);
    let mut counts = CurateCounts::default();
    ops.checkpoint(unit_ops(Unit::Curate, inputs));
    let traced_curate = curate_pass(&inputs.curate, seed, ops, Some((&mut tr, &mut counts)));

    // One validation cycle, and a serial grading of each model: the work
    // the traced calls repeat, with the options they use. The study runs
    // last so that, like the traced study, it runs in a heap the gradings'
    // heavy items have already grown; run first, it was up to a quarter
    // slower than the same study traced.
    for model in 0..FIGURE1_MODELS.len() {
        untraced.run(Unit::Grade(model), inputs, seed, ops, origin);
    }
    let serial: Vec<GradeUnit> = (0..FIGURE1_MODELS.len())
        .map(|model| {
            ops.checkpoint(unit_ops(Unit::Grade(model), inputs));
            serial_reference(&inputs.validate, model, ops)
        })
        .collect();
    untraced.run(Unit::Study, inputs, seed, ops, origin);
    let mut totals = CacheTotals::default();
    ops.checkpoint(unit_ops(Unit::Study, inputs) + 4 * unit_ops(Unit::Grade(0), inputs));
    let (validate_same, serial_reports) =
        validate_traced(&inputs.validate, ops, &mut tr, &mut totals);

    let mut traced_serve = Vec::new();
    for unit in [REFERENCE, LADDER] {
        untraced.run(unit, inputs, seed, ops, origin);
        let Unit::Serve(kind) = unit else {
            unreachable!("the serving cycle has only serving units")
        };
        ops.checkpoint(unit_ops(unit, inputs));
        traced_serve.push(serve_unit(&inputs.serve, kind, ops, Some(&mut tr), origin));
    }

    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, tr.render_tsv()) {
            eprintln!("could not write spans to {path}: {e}");
        }
    }

    let us = |name: &str| tr.durations_us(name);
    let p50 = |name: &str| median(&us(name));
    let p99 = |name: &str| percentile(&us(name), 99.0);
    let sum = |name: &str| us(name).iter().sum::<f64>();
    let self_us = |name: &str| -> Vec<f64> {
        tr.with_children_us(name)
            .iter()
            .map(|(d, c)| d - c)
            .collect()
    };
    let coverage = |name: &str| {
        let spans = tr.with_children_us(name);
        spans.iter().map(|(_, c)| c).sum::<f64>() / spans.iter().map(|(d, _)| d).sum::<f64>()
    };
    let searches = tr.durations_by_item("embed.search");
    let n_items = inputs.curate.log.len() as u64;
    let quarter_mean = |lo: u64, hi: u64| {
        mean(
            &searches
                .iter()
                .filter(|(item, _)| (lo..hi).contains(item))
                .map(|(_, d)| *d)
                .collect::<Vec<_>>(),
        )
    };
    for unit in &traced_serve {
        totals.hits += unit.hits;
        totals.misses += unit.misses;
        totals.invalidations += unit.invalidations;
        totals.index_scans += unit.index_scans;
        totals.full_scans += unit.full_scans;
        totals.estimated_rows += unit.estimated_rows;
        totals.actual_rows += unit.actual_rows;
    }
    let layer_self = tr.layer_self_ms();
    let self_ms = |layer: &str| layer_self.get(layer).copied().unwrap_or(0.0);
    let untraced_curate = &untraced.curate[0];
    let untraced_study = &untraced.studies[0];
    // Overheads compare the traced calls, without the replays that follow
    // them, with the same calls untraced.
    let untraced_validate_s = untraced_study.secs + serial.iter().map(|g| g.secs).sum::<f64>();
    let traced_validate_s = (sum("core.study") + sum("core.grade")) / 1e6;
    let reference_median = |units: &mut dyn Iterator<Item = &ServeUnit>| {
        median(
            &units
                .filter(|u| u.kind == UnitKind::Reference)
                .flat_map(|u| u.rungs[0].latency_ms.iter().copied())
                .collect::<Vec<_>>(),
        )
    };

    let metrics: Metrics = vec![
        ("embed.search_us_p50", p50("embed.search"), "us"),
        ("embed.search_us_p99", p99("embed.search"), "us"),
        ("embed.kb_docs_per_search", mean(&counts.kb_docs), "docs"),
        (
            "embed.search_growth_ratio",
            quarter_mean(3 * n_items / 4, n_items) / quarter_mean(0, n_items / 4),
            "ratio",
        ),
        ("embed.add_us_p50", p50("embed.add"), "us"),
        ("sql.parse_us_p50", p50("sql.parse"), "us"),
        ("sql.decompose_us_p50", p50("sql.decompose"), "us"),
        ("sql.recompose_us_p50", p50("sql.recompose"), "us"),
        (
            "sql.units_per_query",
            mean(&counts.units_per_query),
            "units",
        ),
        ("llm.prompt_build_us_p50", p50("llm.prompt_build"), "us"),
        (
            "llm.prompt_tokens_p50",
            median(&counts.prompt_tokens),
            "tokens",
        ),
        ("llm.generate_us_p50", p50("llm.generate"), "us"),
        (
            "llm.backtranslate_ms_p50",
            p50("llm.backtranslate") / 1e3,
            "ms",
        ),
        (
            "llm.backtranslate_ms_p99",
            p99("llm.backtranslate") / 1e3,
            "ms",
        ),
        (
            "llm.backtranslate_share",
            sum("llm.backtranslate") / sum("core.study"),
            "ratio",
        ),
        ("llm.predict_us_p50", p50("llm.predict"), "us"),
        ("storage.prepare_us_p50", p50("storage.prepare"), "us"),
        ("storage.execute_us_p50", p50("storage.execute"), "us"),
        ("storage.execute_us_p99", p99("storage.execute"), "us"),
        (
            "storage.plan_cache_hit_ratio",
            totals.hits as f64 / (totals.hits + totals.misses) as f64,
            "ratio",
        ),
        (
            "storage.plan_cache_invalidations",
            totals.invalidations as f64,
            "count",
        ),
        (
            "storage.index_scan_share",
            totals.index_scans as f64 / (totals.index_scans + totals.full_scans) as f64,
            "ratio",
        ),
        (
            "storage.est_to_actual_rows",
            totals.estimated_rows as f64 / totals.actual_rows.max(1) as f64,
            "ratio",
        ),
        ("storage.insert_us_p50", p50("storage.insert"), "us"),
        ("storage.insert_us_p99", p99("storage.insert"), "us"),
        ("storage.refresh_us_p50", p50("storage.refresh"), "us"),
        (
            "metrics.rubric_grade_ms_p50",
            p50("metrics.rubric_grade") / 1e3,
            "ms",
        ),
        ("metrics.review_ms", sum("metrics.review") / 1e3, "ms"),
        (
            "core.annotate_self_us_p50",
            median(&self_us("core.annotate")),
            "us",
        ),
        ("core.feedback_us_p50", p50("core.feedback"), "us"),
        ("core.finalize_us_p50", p50("core.finalize"), "us"),
        (
            "core.study_self_share",
            self_us("core.study").iter().sum::<f64>() / sum("core.study"),
            "ratio",
        ),
        ("datasets.generate_s", median(generates), "s"),
        ("self.datasets_ms", self_ms("datasets"), "ms"),
        ("self.sql_ms", self_ms("sql"), "ms"),
        ("self.embed_ms", self_ms("embed"), "ms"),
        ("self.llm_ms", self_ms("llm"), "ms"),
        ("self.storage_ms", self_ms("storage"), "ms"),
        ("self.metrics_ms", self_ms("metrics"), "ms"),
        ("self.core_ms", self_ms("core"), "ms"),
        (
            "trace.annotate_coverage",
            coverage("core.annotate"),
            "ratio",
        ),
        ("trace.study_coverage", coverage("core.study"), "ratio"),
        ("trace.grade_coverage", coverage("core.grade"), "ratio"),
        (
            "trace.annotate_vs_untraced",
            p50("core.annotate") / 1e3 / median(&untraced_curate.draft_ms),
            "ratio",
        ),
        (
            "trace.study_vs_untraced",
            sum("core.study") / 1e6 / untraced_study.secs,
            "ratio",
        ),
        (
            "trace.overhead_curate",
            (traced_curate.pass_s - counts.replay_s) / untraced_curate.pass_s,
            "ratio",
        ),
        (
            "trace.overhead_validate",
            traced_validate_s / untraced_validate_s,
            "ratio",
        ),
        (
            "trace.overhead_serve",
            reference_median(&mut traced_serve.iter())
                / reference_median(&mut untraced.serve.iter()),
            "ratio",
        ),
    ];
    let value = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    };
    let within =
        |names: &[&str], (lo, hi): (f64, f64)| names.iter().all(|n| (lo..=hi).contains(&value(n)));
    let checks = vec![
        (
            "every draft has CANDIDATES_PER_QUERY candidates",
            inputs.drafts_ok && traced_curate.drafts_ok,
        ),
        (
            "export_json round-trips through import_json",
            traced_curate.export_round_trips,
        ),
        (
            "annotate replay equals Project::annotate",
            counts.replay_mismatches == 0,
        ),
        (
            "study and grading replays equal the real calls",
            validate_same,
        ),
        (
            "threaded ExecutionAccuracyReport equals the serial reference",
            untraced.grades.iter().all(|g| {
                g.report.is_some()
                    && g.report == serial[g.model].report
                    && g.report == serial_reports[g.model]
            }),
        ),
        (
            "session results equal serial execution on the pinned snapshot",
            traced_serve.iter().all(|u| u.results_identical),
        ),
        (
            "traced outputs equal untraced outputs",
            traced_curate.digest.hex() == untraced_curate.digest.hex(),
        ),
        (
            "layer spans account for the calls they sit under",
            within(
                &[
                    "trace.annotate_coverage",
                    "trace.study_coverage",
                    "trace.grade_coverage",
                ],
                COVERAGE_BAND,
            ),
        ),
        (
            "traced calls take as long as untraced ones",
            within(
                &[
                    "trace.annotate_vs_untraced",
                    "trace.study_vs_untraced",
                    "trace.overhead_curate",
                    "trace.overhead_validate",
                    "trace.overhead_serve",
                ],
                TRACED_BAND,
            ),
        ),
    ];
    let digests = [("curate", traced_curate.digest.hex())];
    print_result(*ops, &checks, &digests, &metrics);
}
