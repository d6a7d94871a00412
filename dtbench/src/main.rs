//! `dtbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! dtbench run --workload W --seed N --seconds S --trace 0|1 --difftrace BIN --work DIR
//! dtbench setup --workload W --seed N --out DIR [--verify]
//! ```
//!
//! `run` performs one benchmark run and prints, as its last stdout
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones of
//! workload W; with `--trace 1` the run is the traced pass, which
//! reports the per-layer metrics of all three workloads. `setup` is the
//! child process `run` starts for each set-up repetition, so the
//! simulator's memory never counts towards the measured process. See
//! README.md for the workloads, metrics and reference figures.

mod corpus;
mod ops;
mod serve;
mod traced;

use corpus::Workload;
use dt_obs::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median.
fn setup_reps(w: Workload) -> usize {
    match w {
        // Each serve_mix repetition also starts the daemon and runs a
        // warm-up round, about 2 s in all; all three run before the
        // timed loop, since the last one's daemon serves it.
        Workload::ServeMix => 3,
        _ => 8,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("setup") => setup_cmd(&args[1..]),
        _ => Err("usage: dtbench run|setup [options] (see the module docs)".to_string()),
    };
    if let Err(e) = result {
        eprintln!("dtbench: {e}");
        std::process::exit(1);
    }
}

/// `--flag value` pairs and bare `--switch`es.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{a}`"))?;
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => String::new(),
        };
        if out.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(out)
}

fn flag<'a>(flags: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("--{key} is required"))
}

fn num<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    flag(flags, key)?
        .parse()
        .map_err(|_| format!("--{key} needs a whole number"))
}

/// One set-up repetition, in a child process. Prints one JSON line.
fn setup_cmd(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let w = Workload::parse(flag(&flags, "workload")?)?;
    let seed: u64 = num(&flags, "seed")?;
    let dir = PathBuf::from(flag(&flags, "out")?);
    let (t, runs) = corpus::setup(w, seed, &dir)?;
    let roundtrip = if flags.contains_key("verify") {
        match corpus::round_trip_ok(&runs, &dir) {
            Ok(()) => "ok".to_string(),
            Err(e) => e,
        }
    } else {
        "ok".to_string()
    };
    let traces: usize = runs.iter().map(|r| r.run.traces.len()).sum();
    println!(
        "{{\"total_s\":{},\"simulate_s\":{},\"encode_s\":{},\"traces\":{traces},\"roundtrip\":\"{}\"}}",
        t.total_s,
        t.simulate_s,
        t.encode_s,
        json::escape(&roundtrip)
    );
    Ok(())
}

/// What one `setup` child reported.
struct ChildSetup {
    total_s: f64,
    traces: u64,
}

fn run_setup_child(w: Workload, seed: u64, dir: &Path, verify: bool) -> Result<ChildSetup, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "setup",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--out",
    ])
    .arg(dir);
    if verify {
        cmd.arg("--verify");
    }
    let out = cmd.output().map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let v = json::parse(text.trim()).map_err(|e| format!("set-up child output: {e}"))?;
    let obj = v
        .as_object()
        .ok_or("set-up child output is not an object")?;
    let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    let number = |k: &str| match get(k) {
        Some(json::Value::Num(n)) => Ok(*n),
        _ => Err(format!("set-up child output lacks `{k}`")),
    };
    match get("roundtrip") {
        Some(json::Value::Str(s)) if s == "ok" => {}
        Some(json::Value::Str(s)) => return Err(format!("store round trip: {s}")),
        _ => return Err("set-up child output lacks `roundtrip`".to_string()),
    }
    Ok(ChildSetup {
        total_s: number("total_s")?,
        traces: number("traces")? as u64,
    })
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The result line's state: op counts, check outcome, metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First failed check, reported on stderr.
    pub first_failure: Option<String>,
    /// A once-per-run check failed.
    pub incorrect: bool,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Count one op and whether its checks passed.
    pub fn op(&mut self, checked: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checked {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Record a once-per-run check.
    pub fn once(&mut self, checked: Result<(), String>) {
        if let Err(e) = checked {
            self.incorrect = true;
            self.first_failure.get_or_insert(e);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn print(&self) {
        if let Some(e) = &self.first_failure {
            eprintln!("dtbench: check failed: {e}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            !self.incorrect,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

/// A metric value as JSON: every digit, and `null` for a value that
/// could not be measured (NaN).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Peak resident memory of this process, in MiB.
fn own_peak_rss_mib() -> f64 {
    dt_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    difftrace: PathBuf,
    work: PathBuf,
}

fn run_cmd(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let trace: u8 = num(&flags, "trace")?;
    let seconds: u64 = num(&flags, "seconds")?;
    let ra = RunArgs {
        workload: Workload::parse(flag(&flags, "workload")?)?,
        seed: num(&flags, "seed")?,
        seconds: seconds as f64,
        difftrace: PathBuf::from(flag(&flags, "difftrace")?),
        work: PathBuf::from(flag(&flags, "work")?),
    };
    if !ra.difftrace.is_file() {
        return Err(format!("no difftrace binary at {}", ra.difftrace.display()));
    }
    std::fs::create_dir_all(&ra.work).map_err(|e| format!("{}: {e}", ra.work.display()))?;
    let outcome = match trace {
        0 => match ra.workload {
            Workload::DiffLulesh => run_diff(&ra),
            Workload::SweepTables => run_sweep(&ra),
            Workload::ServeMix => run_serve(&ra),
        },
        1 => traced::run(&ra.work, ra.seed, ra.seconds, &ra.difftrace),
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    let _ = std::fs::remove_dir_all(&ra.work);
    outcome?.print();
    Ok(())
}

/// The set-up repetitions of diff_lulesh and sweep_tables, each in a
/// child process. The first writes the stores the ops read and checks
/// their round trip; the rest redo the same set-up into a side
/// directory, spread evenly over the timed loop between ops, so their
/// median samples the machine over the whole run rather than one moment.
struct SpreadSetups<'a> {
    ra: &'a RunArgs,
    side_dir: PathBuf,
    times: Vec<f64>,
}

impl<'a> SpreadSetups<'a> {
    fn first(ra: &'a RunArgs, dir: &Path) -> Result<SpreadSetups<'a>, String> {
        let first = run_setup_child(ra.workload, ra.seed, dir, true)?;
        Ok(SpreadSetups {
            ra,
            side_dir: ra.work.join("setup-rep"),
            times: vec![first.total_s],
        })
    }

    /// Run the repetitions due `elapsed` seconds into the timed loop.
    fn due(&mut self, elapsed: f64) -> Result<(), String> {
        let reps = setup_reps(self.ra.workload);
        while self.times.len() < reps
            && elapsed >= self.ra.seconds * self.times.len() as f64 / reps as f64
        {
            let rep = run_setup_child(self.ra.workload, self.ra.seed, &self.side_dir, false)?;
            self.times.push(rep.total_s);
        }
        Ok(())
    }

    /// Every repetition's time in seconds, running any still due.
    fn finish(mut self) -> Result<Vec<f64>, String> {
        self.due(f64::INFINITY)?;
        Ok(self.times)
    }
}

/// Run `op` back to back for `seconds`, checking each result outside
/// the timing and calling `between` with the elapsed seconds after each
/// op. Returns per-op latencies (s) and their sum, the timed wall time.
/// An op error for which `fatal` holds ends the loop early.
fn timed_loop<T>(
    seconds: f64,
    out: &mut Outcome,
    mut op: impl FnMut() -> Result<T, String>,
    check: impl Fn(&T) -> Result<(), String>,
    fatal: fn(&str) -> bool,
    mut between: impl FnMut(f64) -> Result<(), String>,
) -> Result<(Vec<f64>, f64), String> {
    let mut lat = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let result = op();
        lat.push(t.elapsed().as_secs_f64());
        let stop = result.as_ref().is_err_and(|e| fatal(e));
        out.op(result.and_then(|r| check(&r)));
        if stop {
            break;
        }
        between(start.elapsed().as_secs_f64())?;
    }
    let wall = lat.iter().sum();
    Ok((lat, wall))
}

fn end_to_end(out: &mut Outcome, setup: &[f64], lat: &[f64], wall: f64, rss_mib: f64) {
    let ok = (out.attempted - out.failed) as f64;
    out.metric("setup_s", median(setup), "s");
    out.metric("op_p50_ms", median(lat) * 1e3, "ms");
    out.metric("ops_per_s", ok / wall, "1/s");
    out.metric("peak_rss_mib", rss_mib, "MiB");
}

fn run_diff(ra: &RunArgs) -> Result<Outcome, String> {
    let dir = ra.work.join("corpus");
    let mut setups = SpreadSetups::first(ra, &dir)?;
    let read = |n: &str| std::fs::read(dir.join(n)).map_err(|e| format!("{n}: {e}"));
    let (normal, faulty) = (read("normal.dtts")?, read("faulty.dtts")?);
    let mut out = Outcome::default();
    let (lat, wall) = timed_loop(
        ra.seconds,
        &mut out,
        || ops::diff_op(&normal, &faulty),
        ops::check_diff,
        |_| false,
        |elapsed| setups.due(elapsed),
    )?;
    let setup = setups.finish()?;
    end_to_end(&mut out, &setup, &lat, wall, own_peak_rss_mib());
    Ok(out)
}

/// Load the four stored runs of `sweep_tables`.
pub fn sweep_inputs(dir: &Path) -> Result<ops::SweepInputs, String> {
    let load = |n: &str| {
        dt_trace::store::load(&dir.join(format!("{n}.dtts"))).map_err(|e| format!("{n}: {e}"))
    };
    Ok(ops::SweepInputs {
        ilcs: (load("ilcs-normal")?, load("ilcs-faulty")?),
        lulesh: (load("lulesh-normal")?, load("lulesh-faulty")?),
    })
}

fn run_sweep(ra: &RunArgs) -> Result<Outcome, String> {
    let dir = ra.work.join("corpus");
    let mut setups = SpreadSetups::first(ra, &dir)?;
    let inp = sweep_inputs(&dir)?;
    let mut out = Outcome::default();
    // Once per run, untimed: the cache is observational, so a cached
    // sweep must give exactly the uncached rows.
    let cold = ops::sweep_op(&inp, None);
    let cached = ops::sweep_op(&inp, Some(Arc::new(dt_cache::Cache::new())));
    out.once(
        if ops::same_rows(&cold.ilcs, &cached.ilcs) && ops::same_rows(&cold.lulesh, &cached.lulesh)
        {
            Ok(())
        } else {
            Err("cached sweep rows differ from uncached rows".to_string())
        },
    );
    let (lat, wall) = timed_loop(
        ra.seconds,
        &mut out,
        || Ok(ops::sweep_op(&inp, Some(Arc::new(dt_cache::Cache::new())))),
        ops::check_sweep,
        |_| false,
        |elapsed| setups.due(elapsed),
    )?;
    let setup = setups.finish()?;
    end_to_end(&mut out, &setup, &lat, wall, own_peak_rss_mib());
    Ok(out)
}

fn run_serve(ra: &RunArgs) -> Result<Outcome, String> {
    let dir = ra.work.join("corpus");
    let round = serve::round(&dir);
    let mut setup = Vec::new();
    let mut out = Outcome::default();
    let reps = setup_reps(ra.workload);
    for i in 1..=reps {
        let last = i == reps;
        let child = run_setup_child(ra.workload, ra.seed, &dir, last)?;
        // Every repetition simulates afresh, and the simulated MPI runs'
        // message interleavings (part of hbcheck's input) vary, so the
        // one-shot answers are taken, untimed, from the final stores.
        let refs = if last {
            Some(serve::references(&ra.difftrace, &round)?)
        } else {
            None
        };
        let t = Instant::now();
        let mut d = serve::Daemon::start(&ra.difftrace, &dir, child.traces)?;
        let warm = d.run_round(&round);
        setup.push(child.total_s + t.elapsed().as_secs_f64());
        out.once(warm.and_then(|r| serve::check_round(&round, &r, refs.as_deref())));
        if !last {
            out.once(d.shutdown());
            continue;
        }
        let refs = refs.expect("taken on the last repetition");
        let (lat, wall) = timed_loop(
            ra.seconds,
            &mut out,
            || d.run_round(&round),
            |replies| serve::check_round(&round, replies, Some(&refs)),
            serve::is_lost,
            |_| Ok(()),
        )?;
        out.once(d.check_decodes().map(|_| ()));
        let rss = d.peak_rss_mib();
        out.once(rss.as_ref().map(|_| ()).map_err(Clone::clone));
        out.once(d.shutdown());
        end_to_end(&mut out, &setup, &lat, wall, rss.unwrap_or(f64::NAN));
    }
    Ok(out)
}
