//! The benchmark's inputs: every workload's simulated runs, written as
//! `.dtts` stores. All inputs are a pure function of the workload and
//! the seed; the program under test only ever sees the stores.

use dt_trace::{store, FunctionRegistry, TraceSet};
use mpisim::RunOutcome;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use workloads::{
    run_ilcs, run_lulesh, run_oddeven, run_omp_counter, run_reqlife, IlcsConfig, LuleshConfig,
    LuleshFault, OddEvenConfig, OmpCounterConfig, OmpCounterFault, ReqLifeConfig, ReqLifeFault,
};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    DiffLulesh,
    SweepTables,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DiffLulesh,
        Workload::SweepTables,
        Workload::ServeMix,
    ];

    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (diff_lulesh, sweep_tables, serve_mix)"))
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DiffLulesh => "diff_lulesh",
            Workload::SweepTables => "sweep_tables",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// Healthy runs in the serve_mix odd/even fleet (plus one `fault` run).
pub const FLEET_HEALTHY: usize = 32;

/// LULESH proxy scaled to about 1.4 M events per run: the demo pair's
/// 8 ranks × 4 threads and 45 regions, over 10 cycles instead of one.
pub fn lulesh_scaled(fault: Option<LuleshFault>) -> LuleshConfig {
    LuleshConfig {
        cycles: 10,
        ..LuleshConfig::paper(fault)
    }
}

/// Master rounds of every ILCS run. The paper's configuration stops
/// after 3 rounds without a better champion, so the run length (and the
/// work of every op) would follow the seed; a fixed round count keeps
/// the trace shape the same for every seed.
pub const ILCS_ROUNDS: u32 = 8;

/// The ILCS TSP seed for benchmark seed `seed` (seed 0 is the paper's).
pub fn ilcs_seed(seed: u64) -> u64 {
    4242 + seed
}

/// The odd/even input seed of fleet run `i` (the fault run uses
/// `i = 0`'s seed, like `workloads::oddeven_fleet`).
pub fn oddeven_seed(seed: u64, i: usize) -> u64 {
    2019 + seed * 1000 + i as u64
}

/// One named simulated run, ready to store as `<name>.dtts`.
pub struct Named {
    pub name: String,
    pub run: RunOutcome,
}

fn named(name: &str, run: RunOutcome) -> Named {
    Named {
        name: name.to_string(),
        run,
    }
}

/// Simulate every run of `w`. Runs of one pair share a function
/// registry (as `difftrace demo` records them); fleet runs each get
/// their own, as runs recorded on different days would.
pub fn simulate(w: Workload, seed: u64) -> Vec<Named> {
    match w {
        Workload::DiffLulesh => {
            let reg = Arc::new(FunctionRegistry::new());
            vec![
                named("normal", run_lulesh(&lulesh_scaled(None), reg.clone())),
                named(
                    "faulty",
                    run_lulesh(&lulesh_scaled(Some(LuleshConfig::skip_bug())), reg),
                ),
            ]
        }
        Workload::SweepTables => {
            let reg = Arc::new(FunctionRegistry::new());
            let ilcs = |fault| IlcsConfig {
                seed: ilcs_seed(seed),
                max_rounds: ILCS_ROUNDS,
                no_change_threshold: ILCS_ROUNDS,
                ..IlcsConfig::paper(fault)
            };
            let ilcs_normal = run_ilcs(&ilcs(None), reg.clone());
            let ilcs_faulty = run_ilcs(&ilcs(Some(IlcsConfig::omp_crit_bug())), reg);
            let reg = Arc::new(FunctionRegistry::new());
            let lulesh_normal = run_lulesh(&LuleshConfig::paper(None), reg.clone());
            let lulesh_faulty =
                run_lulesh(&LuleshConfig::paper(Some(LuleshConfig::skip_bug())), reg);
            vec![
                named("ilcs-normal", ilcs_normal),
                named("ilcs-faulty", ilcs_faulty),
                named("lulesh-normal", lulesh_normal),
                named("lulesh-faulty", lulesh_faulty),
            ]
        }
        Workload::ServeMix => {
            let mut out = Vec::new();
            let reg = Arc::new(FunctionRegistry::new());
            out.push(named(
                "lulesh-normal",
                run_lulesh(&LuleshConfig::paper(None), reg.clone()),
            ));
            out.push(named(
                "lulesh-faulty",
                run_lulesh(
                    &LuleshConfig::paper(Some(LuleshConfig::skip_bug())),
                    reg.clone(),
                ),
            ));
            out.push(named(
                "lulesh-coll",
                run_lulesh(
                    &LuleshConfig::paper(Some(LuleshFault::SkipCollective { rank: 2 })),
                    reg,
                ),
            ));
            let reg = Arc::new(FunctionRegistry::new());
            out.push(named(
                "omp-counter-normal",
                run_omp_counter(&OmpCounterConfig::default_2x4(), reg.clone()),
            ));
            out.push(named(
                "omp-counter-faulty",
                run_omp_counter(
                    &OmpCounterConfig {
                        fault: Some(OmpCounterFault::Unprotected { rank: 1 }),
                        ..OmpCounterConfig::default_2x4()
                    },
                    reg,
                ),
            ));
            out.push(named(
                "isend-leak",
                run_reqlife(
                    &ReqLifeConfig {
                        fault: Some(ReqLifeFault::LeakRequest { rank: 2, iter: 1 }),
                        ..ReqLifeConfig::default_4()
                    },
                    Arc::new(FunctionRegistry::new()),
                ),
            ));
            for i in 0..FLEET_HEALTHY {
                let cfg = OddEvenConfig {
                    seed: oddeven_seed(seed, i),
                    ..OddEvenConfig::paper(None)
                };
                out.push(named(
                    &format!("run-{i}"),
                    run_oddeven(&cfg, Arc::new(FunctionRegistry::new())),
                ));
            }
            let cfg = OddEvenConfig {
                seed: oddeven_seed(seed, 0),
                ..OddEvenConfig::paper(Some(OddEvenConfig::swap_bug()))
            };
            out.push(named(
                "fault",
                run_oddeven(&cfg, Arc::new(FunctionRegistry::new())),
            ));
            out
        }
    }
}

/// Timings of one set-up repetition, in seconds.
pub struct SetupTimes {
    /// Wall time of the whole repetition.
    pub total_s: f64,
    /// The `workloads::run_*` calls.
    pub simulate_s: f64,
    /// The `store::save_full` calls (encode + write).
    pub encode_s: f64,
}

/// One set-up repetition: simulate `w`'s runs and store each under
/// `dir/<name>.dtts`. Returns the runs too, for the round-trip check.
pub fn setup(w: Workload, seed: u64, dir: &Path) -> Result<(SetupTimes, Vec<Named>), String> {
    let t0 = Instant::now();
    let runs = simulate(w, seed);
    let simulate_s = t0.elapsed().as_secs_f64();
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let t1 = Instant::now();
    for r in &runs {
        let path = dir.join(format!("{}.dtts", r.name));
        store::save_full(&r.run.traces, &r.run.hb, &path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let encode_s = t1.elapsed().as_secs_f64();
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        simulate_s,
        encode_s,
    };
    Ok((times, runs))
}

/// Decoding each written store gives back its simulated trace set,
/// event for event (ids, truncation flags, symbols and names).
pub fn round_trip_ok(runs: &[Named], dir: &Path) -> Result<(), String> {
    for r in runs {
        let path = dir.join(format!("{}.dtts", r.name));
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (back, _) = store::from_bytes_full(&bytes).map_err(|e| format!("{}: {e}", r.name))?;
        same_traces(&r.run.traces, &back).map_err(|e| format!("{}: {e}", r.name))?;
    }
    Ok(())
}

fn same_traces(a: &TraceSet, b: &TraceSet) -> Result<(), String> {
    if a.ids() != b.ids() {
        return Err("trace ids differ after decode".to_string());
    }
    for (x, y) in a.iter().zip(b.iter()) {
        if x != y {
            return Err(format!("trace {} differs after decode", x.id));
        }
    }
    if a.registry.names() != b.registry.names() {
        return Err("function names differ after decode".to_string());
    }
    Ok(())
}
