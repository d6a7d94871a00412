//! The traced pass (`--trace 1`): per-layer times and work counts.
//!
//! The pass times the public calls into each layer from this file.
//! The diff pipeline runs all its layers inside one call, so here a
//! replica drives the same public functions one at a time (filter, NLR
//! build with the same cache protocol, mining, lattice, JSM, linkage,
//! B-score) and is checked against the one-call run: the same top
//! suspect for `diff_lulesh`, bit-identical B-scores and the same top
//! suspects for every `sweep_tables` row. Exact work counts come from
//! the counters the `*_rec` entry points report into a
//! `dt_obs::MetricsRecorder`. A traced round runs one traced op of each
//! workload, so one `--trace 1` run reports every per-layer metric.

use crate::corpus::{self, Workload};
use crate::ops::{self, SweepInputs};
use crate::serve::{self, Daemon, Query};
use crate::{median, Outcome};
use cluster::{bscore, linkage, CondensedMatrix};
use difftrace::attributes::mine;
use difftrace::filter::symbol_name;
use difftrace::{
    hbcheck_set, lint_set, racecheck_set, render_ranking, reqcheck_set, sweep_parallel_cached_rec,
    try_diff_runs_hb_rec, AnalysisRun, AttrConfig, DiffRun, FilterConfig, FilteredSet,
    FilteredTrace, FleetOptions, FleetRun, HbOptions, JsmMatrix, LintDomain, LintOptions, NlrSet,
    Params, PipelineOptions, RaceOptions, RankingRow, ReqOptions,
};
use dt_cache::Cache;
use dt_obs::MetricsRecorder;
use dt_trace::hb::HbLog;
use dt_trace::{store, TraceId, TraceSet};
use fca::{ConceptLattice, FormalContext};
use nlr::LoopTable;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Milliseconds spent per layer within one traced op.
#[derive(Default)]
struct Spans(BTreeMap<&'static str, f64>);

impl Spans {
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.0.entry(layer).or_default() += t.elapsed().as_secs_f64() * 1e3;
        out
    }

    fn get(&self, layer: &str) -> f64 {
        self.0.get(layer).copied().unwrap_or(0.0)
    }
}

/// Per-round samples of every per-layer metric.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_string()).or_default().push(v);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }
}

/// Which traced ops feed each per-layer time metric, and from which
/// span: the workloads whose op time the layer should move.
const LAYER_TIMES: &[(&str, &str, &[Workload])] = &[
    ("store.decode_ms", "decode", &[Workload::DiffLulesh]),
    (
        "filter.apply_ms",
        "filter",
        &[Workload::DiffLulesh, Workload::SweepTables],
    ),
    ("nlr.build_ms", "nlr", &[Workload::DiffLulesh]),
    ("attributes.mine_ms", "mine", &[Workload::SweepTables]),
    ("fca.lattice_ms", "lattice", &[Workload::SweepTables]),
    ("jsm.build_ms", "jsm", &[Workload::SweepTables]),
    ("cluster.linkage_ms", "linkage", &[Workload::SweepTables]),
    ("cluster.bscore_ms", "bscore", &[Workload::SweepTables]),
    ("diffnlr.build_ms", "diffnlr", &[Workload::DiffLulesh]),
    (
        "report.render_ms",
        "render",
        &[Workload::DiffLulesh, Workload::SweepTables],
    ),
];

/// Fraction of a pair's maximum change score that lists a suspect, and
/// the most threads listed — the pipeline's ranking rule.
const SUSPECT_THRESHOLD: f64 = 0.3;
const MAX_THREADS_LISTED: usize = 6;

/// Filter `set` and align it to `ids` (missing traces become empty).
fn aligned(set: &TraceSet, filter: &FilterConfig, ids: &[TraceId]) -> FilteredSet {
    let by_id: BTreeMap<TraceId, FilteredTrace> = filter
        .apply(set)
        .traces
        .into_iter()
        .map(|t| (t.id, t))
        .collect();
    FilteredSet {
        traces: ids
            .iter()
            .map(|&id| {
                by_id.get(&id).cloned().unwrap_or(FilteredTrace {
                    id,
                    symbols: Vec::new(),
                    truncated: false,
                })
            })
            .collect(),
    }
}

/// One execution's analysis, layer by layer. Returns it with the
/// number of NLR builder runs (lower than the trace count on a warm
/// cache).
fn analysis(
    set: &TraceSet,
    params: &Params,
    table: &mut LoopTable,
    ids: &[TraceId],
    cache: Option<&Cache>,
    sp: &mut Spans,
) -> (AnalysisRun, u64) {
    let filtered = sp.time("filter", || aligned(set, &params.filter, ids));
    let k = params.filter.nlr_k;
    let name = |s: u32| symbol_name(&set.registry, s);
    let (nlrs, folds, keys) = sp.time("nlr", || match cache {
        Some(c) => {
            let keys: Vec<u128> = filtered
                .traces
                .iter()
                .map(|t| dt_cache::nlr_key(k, &t.symbols, name))
                .collect();
            let (nlrs, folds) = NlrSet::build_cached(&filtered, k, table, c, &keys);
            (nlrs, folds, Some(keys))
        }
        None => (
            NlrSet::build(&filtered, k, table),
            filtered.traces.len() as u64,
            None,
        ),
    });
    let attr_code = params.attrs.to_string();
    let mined: Vec<Vec<(String, f64)>> = sp.time("mine", || {
        ids.iter()
            .enumerate()
            .map(|(i, id)| {
                let nlr = nlrs.get(*id).expect("aligned to ids");
                let symbols = filtered.traces[i].symbols.as_slice();
                if let (Some(c), Some(keys)) = (cache, &keys) {
                    let akey = dt_cache::attr_key(keys[i], &attr_code, nlr.elements());
                    if let Some(v) = c.get_attrs(akey) {
                        return (*v).clone();
                    }
                    let fresh = mine(symbols, nlr, params.attrs, &name);
                    c.put_attrs(akey, Arc::new(fresh.clone()));
                    return fresh;
                }
                mine(symbols, nlr, params.attrs, &name)
            })
            .collect()
    });
    let (context, lattice) = sp.time("lattice", || {
        let mut context = FormalContext::new();
        for (id, attrs) in ids.iter().zip(&mined) {
            context.add_object(&id.to_string(), attrs.iter().map(|(k, w)| (k.as_str(), *w)));
        }
        let lattice = ConceptLattice::from_context(&context);
        (context, lattice)
    });
    let jsm = sp.time("jsm", || JsmMatrix::from_context(&context, ids.to_vec()));
    let dendrogram = sp.time("linkage", || {
        linkage(&CondensedMatrix::from_similarity(&jsm.m), params.linkage)
    });
    let run = AnalysisRun {
        registry: set.registry.clone(),
        ids: ids.to_vec(),
        nlrs,
        context,
        lattice,
        jsm,
        dendrogram,
    };
    (run, folds)
}

/// Suspicious processes and threads from `JSM_D` row sums.
fn suspects(jsm_d: &JsmMatrix) -> (Vec<u32>, Vec<TraceId>) {
    let mut scores = jsm_d.row_scores();
    scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let tmax = scores.first().map_or(0.0, |x| x.1);
    let threads = scores
        .iter()
        .filter(|(_, s)| tmax > 0.0 && *s >= SUSPECT_THRESHOLD * tmax)
        .take(MAX_THREADS_LISTED)
        .map(|(id, _)| *id)
        .collect();
    let mut per_proc: BTreeMap<u32, f64> = BTreeMap::new();
    for (id, s) in &scores {
        *per_proc.entry(id.process).or_insert(0.0) += s;
    }
    let mut per_proc: Vec<(u32, f64)> = per_proc.into_iter().collect();
    per_proc.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let pmax = per_proc.first().map_or(0.0, |x| x.1);
    let procs = per_proc
        .iter()
        .filter(|(_, s)| pmax > 0.0 && *s >= SUSPECT_THRESHOLD * pmax)
        .map(|(p, _)| *p)
        .collect();
    (procs, threads)
}

/// A (normal, faulty) diff at one thread, layer by layer.
fn layered_diff(
    normal: &TraceSet,
    faulty: &TraceSet,
    params: &Params,
    cache: Option<&Cache>,
    sp: &mut Spans,
) -> Result<(DiffRun, u64), String> {
    let mut ids = normal.ids();
    for id in faulty.ids() {
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids.sort();
    let mut table = LoopTable::new();
    let (n, n_folds) = analysis(normal, params, &mut table, &ids, cache, sp);
    let (f, f_folds) = analysis(faulty, params, &mut table, &ids, cache, sp);
    let jsm_d = sp
        .time("jsm", || f.jsm.diff(&n.jsm))
        .map_err(|e| format!("JSM diff: {e:?}"))?;
    let b = sp.time("bscore", || bscore(&n.dendrogram, &f.dendrogram));
    let (suspicious_processes, suspicious_threads) = suspects(&jsm_d);
    let run = DiffRun {
        params: params.clone(),
        normal: n,
        faulty: f,
        jsm_d,
        bscore: b,
        suspicious_processes,
        suspicious_threads,
        table,
        lint: None,
        hb: None,
        race: None,
        req: None,
    };
    Ok((run, n_folds + f_folds))
}

/// The traced diff_lulesh op. `top` is the one-call run's top suspect.
fn diff_op(normal: &[u8], faulty: &[u8], top: u32, sp: &mut Spans) -> Result<(), String> {
    let (n, f) = sp.time("decode", || {
        (
            store::from_bytes_full(normal),
            store::from_bytes_full(faulty),
        )
    });
    let (n, f) = (
        n.map_err(|e| e.to_string())?.0,
        f.map_err(|e| e.to_string())?.0,
    );
    let (d, _) = layered_diff(&n, &f, &ops::diff_params(), None, sp)?;
    if d.suspicious_processes.first() != Some(&top) {
        return Err(format!(
            "layered diff names {:?}, the one-call run names {top}",
            d.suspicious_processes
        ));
    }
    let target = *d.suspicious_threads.first().ok_or("no suspicious thread")?;
    let view = sp
        .time("diffnlr", || d.diff_nlr(target))
        .ok_or("no diffNLR for the top suspect")?;
    let text = sp.time("render", || view.render());
    if text.is_empty() {
        return Err("empty diffNLR rendering".to_string());
    }
    ops::check_jsm(&d.normal.jsm)?;
    ops::check_jsm(&d.faulty.jsm)?;
    ops::check_bscore(d.bscore)
}

/// One grid of the traced sweep op, rows sorted like a sweep's.
fn layered_grid(
    (normal, faulty): &(TraceSet, TraceSet),
    filters: &[FilterConfig],
    cache: &Cache,
    sp: &mut Spans,
) -> Result<(Vec<RankingRow>, u64), String> {
    let mut rows = Vec::new();
    let mut folds = 0;
    for filter in filters {
        for attrs in AttrConfig::ALL {
            let params = Params::new(filter.clone(), attrs);
            let (d, f) = layered_diff(normal, faulty, &params, Some(cache), sp)?;
            folds += f;
            rows.push(RankingRow {
                filter: params.filter.to_string(),
                attrs: params.attrs.to_string(),
                bscore: d.bscore,
                top_processes: d.suspicious_processes,
                top_threads: d.suspicious_threads,
            });
        }
    }
    rows.sort_by(|x, y| {
        x.bscore
            .total_cmp(&y.bscore)
            .then_with(|| x.filter.cmp(&y.filter))
            .then_with(|| x.attrs.cmp(&y.attrs))
    });
    Ok((rows, folds))
}

/// Same B-scores (bit for bit) and the same top suspects, row by row.
fn same_tops(a: &[RankingRow], b: &[RankingRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            (&x.filter, &x.attrs, x.bscore.to_bits()) == (&y.filter, &y.attrs, y.bscore.to_bits())
                && x.top_processes.first() == y.top_processes.first()
                && x.top_threads.first() == y.top_threads.first()
        })
}

/// The traced sweep_tables op; returns its NLR builder runs.
fn sweep_op(inp: &SweepInputs, reference: &ops::SweepOut, sp: &mut Spans) -> Result<u64, String> {
    let cache = Cache::new();
    let (ilcs, a) = layered_grid(&inp.ilcs, &ops::ilcs_filters(), &cache, sp)?;
    let (lulesh, b) = layered_grid(&inp.lulesh, &ops::lulesh_filters(), &cache, sp)?;
    let table = sp.time("render", || {
        render_ranking(&ilcs) + &render_ranking(&lulesh)
    });
    if !same_tops(&ilcs, &reference.ilcs) || !same_tops(&lulesh, &reference.lulesh) {
        return Err("layered sweep rows differ from the one-call sweep".to_string());
    }
    ops::check_sweep(&ops::SweepOut {
        ilcs,
        lulesh,
        table,
    })?;
    Ok(a + b)
}

/// The serve_mix corpora loaded in-process for the checker layers.
struct ServeSets {
    sets: BTreeMap<String, (TraceSet, HbLog)>,
}

impl ServeSets {
    fn load(dir: &Path) -> Result<ServeSets, String> {
        let mut sets = BTreeMap::new();
        for name in serve::corpus_names() {
            let path = dir.join(format!("{name}.dtts"));
            let loaded = store::load_full(&path).map_err(|e| format!("{name}: {e}"))?;
            sets.insert(name, loaded);
        }
        Ok(ServeSets { sets })
    }

    fn get(&self, name: &str) -> &(TraceSet, HbLog) {
        &self.sets[name]
    }
}

/// One checker call of the round, in-process, timed under
/// `<checker>.<domain>_ms`.
fn checker_call(q: &Query, sets: &ServeSets, samples: &mut BTreeMap<String, f64>) {
    let (set, hb) = sets.get(
        q.req
            .corpus
            .as_deref()
            .expect("checker queries name a corpus"),
    );
    let domain = q.req.domain.as_deref().unwrap_or("expanded");
    let d = LintDomain::parse(domain).expect("round domains parse");
    let t = Instant::now();
    match q.kind {
        "lint" => {
            let mut o = LintOptions::default();
            (o.domain, o.threads) = (d, 1);
            let _ = lint_set(set, &o);
        }
        "hbcheck" => {
            let mut o = HbOptions::default();
            (o.domain, o.threads) = (d, 1);
            let _ = hbcheck_set(set, hb, &o);
        }
        "racecheck" => {
            let mut o = RaceOptions::default();
            (o.domain, o.threads) = (d, 1);
            let _ = racecheck_set(set, &o);
        }
        _ => {
            let mut o = ReqOptions::default();
            (o.domain, o.threads) = (d, 1);
            let _ = reqcheck_set(set, &o);
        }
    }
    let layer = if q.kind == "lint" {
        "tracelint"
    } else {
        q.kind
    };
    *samples.entry(format!("{layer}.{domain}_ms")).or_default() += t.elapsed().as_secs_f64() * 1e3;
}

/// Fold the odd/even fleet in-process (warm NLR cache, one thread);
/// per-run fold times in ms, the report time in ms, and the outlier.
fn fleet_fold(
    sets: &ServeSets,
    cache: &Arc<Cache>,
    rec: &dyn dt_obs::Recorder,
) -> Result<(Vec<f64>, f64, Option<String>), String> {
    let opts = FleetOptions {
        threads: 1,
        cache: Some(cache.clone()),
    };
    let mut fleet = FleetRun::new(ops::diff_params());
    let mut adds = Vec::new();
    for name in serve::corpus_names()
        .iter()
        .filter(|n| n.starts_with("run-") || *n == "fault")
    {
        let t = Instant::now();
        fleet
            .add_run_rec(name, &sets.get(name).0, &opts, rec)
            .map_err(|e| e.to_string())?;
        adds.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let report = fleet.report();
    let report_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((adds, report_ms, report.outlier))
}

/// The traced pass over all three workloads for about `seconds`.
pub fn run(work: &Path, seed: u64, seconds: f64, difftrace: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut samples = Samples::default();

    // Set-up, in-process: the simulator and store encoder layers.
    let (mut simulate_s, mut encode_s, mut serve_traces) = (0.0, 0.0, 0u64);
    for w in Workload::ALL {
        let (t, runs) = corpus::setup(w, seed, &work.join(w.name()))?;
        simulate_s += t.simulate_s;
        encode_s += t.encode_s;
        if w == Workload::ServeMix {
            serve_traces = runs.iter().map(|r| r.run.traces.len() as u64).sum();
        }
    }
    samples.push("mpisim.simulate_ms", simulate_s * 1e3);
    samples.push("store.encode_ms", encode_s * 1e3);

    // Inputs and one-call references, untimed.
    let diff_dir = work.join(Workload::DiffLulesh.name());
    let read = |n: &str| std::fs::read(diff_dir.join(n)).map_err(|e| format!("{n}: {e}"));
    let (normal, faulty) = (read("normal.dtts")?, read("faulty.dtts")?);
    let diff_rec = MetricsRecorder::new();
    let top = {
        let (n, _) = store::from_bytes_full(&normal).map_err(|e| e.to_string())?;
        let (f, _) = store::from_bytes_full(&faulty).map_err(|e| e.to_string())?;
        let d = try_diff_runs_hb_rec(
            &n,
            &f,
            None,
            &ops::diff_params(),
            &PipelineOptions::with_threads(1),
            &diff_rec,
        )
        .map_err(|e| e.to_string())?;
        *d.suspicious_processes
            .first()
            .ok_or("one-call diff names no suspect")?
    };
    let sweep_in = crate::sweep_inputs(&work.join(Workload::SweepTables.name()))?;
    let sweep_rec = MetricsRecorder::new();
    let sweep_cache = Arc::new(Cache::new());
    let sweep_ref = {
        let grid = |(n, f): &(TraceSet, TraceSet), filters: &[FilterConfig]| {
            sweep_parallel_cached_rec(
                n,
                f,
                filters,
                &AttrConfig::ALL,
                cluster::Method::Ward,
                1,
                Some(sweep_cache.clone()),
                &sweep_rec,
            )
        };
        let ilcs = grid(&sweep_in.ilcs, &ops::ilcs_filters());
        let lulesh = grid(&sweep_in.lulesh, &ops::lulesh_filters());
        ops::SweepOut {
            ilcs,
            lulesh,
            table: String::new(),
        }
    };
    let serve_dir = work.join(Workload::ServeMix.name());
    let round = serve::round(&serve_dir);
    let refs = serve::references(difftrace, &round)?;
    let sets = ServeSets::load(&serve_dir)?;
    let fleet_cache = Arc::new(Cache::new());
    let fleet_rec = MetricsRecorder::new();
    fleet_fold(&sets, &fleet_cache, &fleet_rec)?;
    let mut daemon = Daemon::start(difftrace, &serve_dir, serve_traces)?;
    let warm = daemon.run_round(&round);
    out.once(warm.and_then(|r| serve::check_round(&round, &r, Some(&refs))));

    // Traced rounds: one traced op of each workload per round.
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let mut spans: BTreeMap<Workload, Spans> = BTreeMap::new();

        let mut sp = Spans::default();
        let t = Instant::now();
        out.op(diff_op(&normal, &faulty, top, &mut sp));
        samples.push("trace.diff_lulesh_op_ms", t.elapsed().as_secs_f64() * 1e3);
        spans.insert(Workload::DiffLulesh, sp);

        let mut sp = Spans::default();
        let t = Instant::now();
        let folds = sweep_op(&sweep_in, &sweep_ref, &mut sp);
        samples.push("trace.sweep_tables_op_ms", t.elapsed().as_secs_f64() * 1e3);
        spans.insert(Workload::SweepTables, sp);
        out.op(folds.and_then(|f| {
            let want = sweep_rec.counter("nlr_folds");
            if f == want {
                Ok(())
            } else {
                Err(format!(
                    "layered sweep made {f} NLR folds, the one-call sweep {want}"
                ))
            }
        }));

        let t = Instant::now();
        let replies = daemon.run_round(&round);
        samples.push("trace.serve_mix_op_ms", t.elapsed().as_secs_f64() * 1e3);
        if let Ok(replies) = &replies {
            for (q, (l, _)) in round.iter().zip(replies) {
                samples.push(&format!("serve.{}_ms", q.kind), l * 1e3);
            }
        }
        out.op(replies.and_then(|r| serve::check_round(&round, &r, Some(&refs))));
        match daemon.metrics() {
            Ok((dt, _)) => samples.push("serve.metrics_ms", dt * 1e3),
            Err(e) => out.once(Err(e)),
        }

        for (metric, span, from) in LAYER_TIMES {
            let v = from.iter().map(|w| spans[w].get(span)).sum();
            samples.push(metric, v);
        }
        let mut checker_ms = BTreeMap::new();
        for q in round.iter().filter(|q| q.req.domain.is_some()) {
            checker_call(q, &sets, &mut checker_ms);
        }
        for (name, v) in checker_ms {
            samples.push(&name, v);
        }
        let (adds, report_ms, outlier) = fleet_fold(&sets, &fleet_cache, &dt_obs::NOOP)?;
        for a in adds {
            samples.push("fleet.add_run_ms", a);
        }
        samples.push("fleet.report_ms", report_ms);
        out.once(match outlier.as_deref() {
            Some("fault") => Ok(()),
            other => Err(format!(
                "in-process fleet outlier is {other:?}, not `fault`"
            )),
        });
    }
    let decodes = daemon.check_decodes();
    out.once(decodes.as_ref().map(|_| ()).map_err(Clone::clone));
    out.once(daemon.shutdown());

    let cache = sweep_cache.stats();
    let counts: Vec<(&str, f64)> = vec![
        ("store.trace_decodes", decodes.unwrap_or(0) as f64),
        ("filter.events_in", diff_rec.counter("events_total") as f64),
        ("filter.events_kept", diff_rec.counter("events_kept") as f64),
        ("nlr.terms", diff_rec.counter("nlr_terms") as f64),
        ("nlr.folds", sweep_rec.counter("nlr_folds") as f64),
        (
            "attributes.mined",
            sweep_rec.counter("attributes_mined") as f64,
        ),
        ("fca.concepts", sweep_rec.counter("concepts") as f64),
        ("jsm.cells", sweep_rec.counter("jsm_cells") as f64),
        ("cache.nlr_hits", cache.nlr_hits as f64),
        ("cache.nlr_misses", cache.nlr_misses as f64),
        ("cache.attr_hits", cache.attr_hits as f64),
        ("cache.attr_misses", cache.attr_misses as f64),
        (
            "cache.hit_ratio",
            (cache.nlr_hits + cache.attr_hits) as f64
                / (cache.nlr_hits + cache.nlr_misses + cache.attr_hits + cache.attr_misses) as f64,
        ),
        (
            "fleet.lattice_folds",
            fleet_rec.counter("fleet_lattice_folds") as f64,
        ),
    ];
    for name in PER_LAYER {
        match counts.iter().find(|(n, _)| n == name) {
            Some((_, v)) => out.metric(name, *v, unit_of(name)),
            None => out.metric(name, samples.median(name), unit_of(name)),
        }
    }
    Ok(out)
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("ratio") {
        "frac"
    } else {
        "count"
    }
}

/// Every per-layer metric, in report order (as in BENCHMARK.json).
pub const PER_LAYER: &[&str] = &[
    "mpisim.simulate_ms",
    "store.encode_ms",
    "store.decode_ms",
    "store.trace_decodes",
    "filter.apply_ms",
    "filter.events_in",
    "filter.events_kept",
    "nlr.build_ms",
    "nlr.terms",
    "nlr.folds",
    "attributes.mine_ms",
    "attributes.mined",
    "fca.lattice_ms",
    "fca.concepts",
    "jsm.build_ms",
    "jsm.cells",
    "cluster.linkage_ms",
    "cluster.bscore_ms",
    "diffnlr.build_ms",
    "report.render_ms",
    "cache.nlr_hits",
    "cache.nlr_misses",
    "cache.attr_hits",
    "cache.attr_misses",
    "cache.hit_ratio",
    "fleet.add_run_ms",
    "fleet.report_ms",
    "fleet.lattice_folds",
    "tracelint.expanded_ms",
    "tracelint.compressed_ms",
    "hbcheck.expanded_ms",
    "hbcheck.compressed_ms",
    "racecheck.expanded_ms",
    "racecheck.compressed_ms",
    "reqcheck.expanded_ms",
    "reqcheck.compressed_ms",
    "serve.lint_ms",
    "serve.hbcheck_ms",
    "serve.racecheck_ms",
    "serve.reqcheck_ms",
    "serve.diff_ms",
    "serve.single_ms",
    "serve.fleet_ms",
    "serve.metrics_ms",
    "trace.diff_lulesh_op_ms",
    "trace.sweep_tables_op_ms",
    "trace.serve_mix_op_ms",
];
