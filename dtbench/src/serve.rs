//! `serve_mix`: one `difftrace serve` daemon (one worker) and one
//! client on one persistent connection with default socket options,
//! running a fixed round of requests in a closed loop.

use crate::corpus::FLEET_HEALTHY;
use dt_serve::{parse_response, request_line, Request, Response};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// What a reply must show beyond `ok` and byte identity.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// No error-severity diagnostic.
    Clean,
    /// Exactly these error codes, and at least these warning codes.
    Fires {
        errors: &'static [&'static str],
        warnings: &'static [&'static str],
    },
    /// The diff names process 2 first.
    Diff,
    /// Nothing beyond `ok` and byte identity.
    Any,
    /// The fleet flags the `fault` run as its outlier.
    Fleet,
}

/// One request of the round, with its one-shot CLI twin.
#[derive(Debug, Clone)]
pub struct Query {
    /// Request kind, as in the per-layer `serve.<kind>_ms` metrics.
    pub kind: &'static str,
    pub req: Request,
    /// `difftrace` arguments answering the same query one-shot.
    pub cli: Vec<String>,
    pub expect: Expect,
}

/// The corpora `serve_mix` serves, by name (file stem).
pub fn corpus_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "lulesh-normal",
        "lulesh-faulty",
        "lulesh-coll",
        "omp-counter-normal",
        "omp-counter-faulty",
        "isend-leak",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    names.extend(fleet_names());
    names
}

fn fleet_names() -> Vec<String> {
    let mut names: Vec<String> = (0..FLEET_HEALTHY).map(|i| format!("run-{i}")).collect();
    names.push("fault".to_string());
    names
}

const CHECKERS: [&str; 4] = ["lint", "hbcheck", "racecheck", "reqcheck"];
const DOMAINS: [&str; 2] = ["expanded", "compressed"];

/// The fixed round: each checker in both domains on a corpus where it
/// must stay clean and on one where it must fire, then a warm `diff`,
/// a warm `single` and a `fleet` over the odd/even fleet. Every
/// request asks for one thread.
pub fn round(dir: &Path) -> Vec<Query> {
    let file = |name: &str| dir.join(format!("{name}.dtts")).display().to_string();
    let mut out = Vec::new();
    for checker in CHECKERS {
        let (clean, fire, expect) = match checker {
            "lint" => (
                "lulesh-normal",
                "lulesh-faulty",
                Expect::Fires {
                    errors: &[],
                    warnings: &["TL003"],
                },
            ),
            "hbcheck" => (
                "lulesh-normal",
                "lulesh-coll",
                Expect::Fires {
                    errors: &["HB001"],
                    warnings: &[],
                },
            ),
            "racecheck" => (
                "omp-counter-normal",
                "omp-counter-faulty",
                Expect::Fires {
                    errors: &["RC001", "RC002"],
                    warnings: &["RC004"],
                },
            ),
            _ => (
                "lulesh-normal",
                "isend-leak",
                Expect::Fires {
                    errors: &["RQ001"],
                    warnings: &[],
                },
            ),
        };
        for (corpus, expect) in [(clean, Expect::Clean), (fire, expect)] {
            for domain in DOMAINS {
                out.push(Query {
                    kind: checker,
                    req: Request {
                        cmd: checker.to_string(),
                        corpus: Some(corpus.to_string()),
                        domain: Some(domain.to_string()),
                        threads: Some(1),
                        ..Request::default()
                    },
                    cli: vec![
                        checker.to_string(),
                        file(corpus),
                        "--domain".to_string(),
                        domain.to_string(),
                        "--threads".to_string(),
                        "1".to_string(),
                    ],
                    expect,
                });
            }
        }
    }
    out.push(Query {
        kind: "diff",
        req: Request {
            cmd: "diff".to_string(),
            normal: Some("lulesh-normal".to_string()),
            faulty: Some("lulesh-faulty".to_string()),
            threads: Some(1),
            ..Request::default()
        },
        cli: vec![
            "diff".to_string(),
            file("lulesh-normal"),
            file("lulesh-faulty"),
            "--threads".to_string(),
            "1".to_string(),
        ],
        expect: Expect::Diff,
    });
    out.push(Query {
        kind: "single",
        req: Request {
            cmd: "single".to_string(),
            corpus: Some("lulesh-faulty".to_string()),
            threads: Some(1),
            ..Request::default()
        },
        // `single` has no --threads flag: the one-shot command runs at one.
        cli: vec!["single".to_string(), file("lulesh-faulty")],
        expect: Expect::Any,
    });
    let mut fleet_cli = vec!["fleet".to_string()];
    fleet_cli.extend(fleet_names().iter().map(|n| file(n)));
    fleet_cli.extend(["--threads".to_string(), "1".to_string()]);
    out.push(Query {
        kind: "fleet",
        req: Request {
            cmd: "fleet".to_string(),
            corpora: fleet_names(),
            threads: Some(1),
            ..Request::default()
        },
        cli: fleet_cli,
        expect: Expect::Fleet,
    });
    for (i, q) in out.iter_mut().enumerate() {
        q.req.id = i as u64 + 1;
    }
    out
}

/// The one-shot CLI's stdout for every query of the round.
pub fn references(difftrace: &Path, round: &[Query]) -> Result<Vec<String>, String> {
    round
        .iter()
        .map(|q| {
            let out = Command::new(difftrace)
                .args(&q.cli)
                .stdin(Stdio::null())
                .output()
                .map_err(|e| format!("running {}: {e}", difftrace.display()))?;
            if !out.status.success() {
                return Err(format!(
                    "`difftrace {}` failed: {}",
                    q.cli.join(" "),
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            String::from_utf8(out.stdout).map_err(|e| e.to_string())
        })
        .collect()
}

/// Error and warning codes of a checker report (`error[XX001] …`).
fn codes(output: &str) -> (BTreeSet<&str>, BTreeSet<&str>) {
    let mut errors = BTreeSet::new();
    let mut warnings = BTreeSet::new();
    for line in output.lines() {
        for (prefix, set) in [("error[", &mut errors), ("warning[", &mut warnings)] {
            if let Some(rest) = line.strip_prefix(prefix) {
                if let Some(end) = rest.find(']') {
                    set.insert(&rest[..end]);
                }
            }
        }
    }
    (errors, warnings)
}

/// Check a round's replies; `refs` holds the one-shot CLI's stdout for
/// each query when the served stores are the ones it read.
pub fn check_round(
    round: &[Query],
    replies: &[(f64, Response)],
    refs: Option<&[String]>,
) -> Result<(), String> {
    for (i, (q, (_, resp))) in round.iter().zip(replies).enumerate() {
        check_reply(q, resp, refs.map(|r| r[i].as_str()))?;
    }
    Ok(())
}

/// Check one reply against its query and one-shot reference.
fn check_reply(q: &Query, resp: &Response, reference: Option<&str>) -> Result<(), String> {
    let what = || format!("{} {:?}", q.kind, q.req.corpus.as_deref().unwrap_or(""));
    if !resp.ok {
        return Err(format!("{}: ok:false: {}", what(), resp.error));
    }
    if reference.is_some_and(|r| resp.output != r) {
        return Err(format!("{}: reply differs from the one-shot CLI", what()));
    }
    let (errors, warnings) = codes(&resp.output);
    match q.expect {
        Expect::Clean => {
            if resp.errors != 0 || !errors.is_empty() {
                return Err(format!("{}: healthy corpus has errors {errors:?}", what()));
            }
        }
        Expect::Fires {
            errors: want_errors,
            warnings: want_warnings,
        } => {
            let want: BTreeSet<&str> = want_errors.iter().copied().collect();
            if errors != want || (resp.errors == 0) != want.is_empty() {
                return Err(format!("{}: error codes {errors:?}, want {want:?}", what()));
            }
            if let Some(w) = want_warnings.iter().find(|w| !warnings.contains(*w)) {
                return Err(format!("{}: warning {w} missing", what()));
            }
        }
        Expect::Diff => {
            if !resp.output.contains("suspicious processes: [2") {
                return Err("diff does not name process 2 first".to_string());
            }
        }
        Expect::Fleet => {
            if !resp.output.contains("\noutlier: fault ") {
                return Err("fleet does not flag `fault` as its outlier".to_string());
            }
        }
        Expect::Any => {}
    }
    Ok(())
}

/// A request failed because the connection is gone: the client does
/// not reconnect, so no later request can run.
pub fn is_lost(e: &str) -> bool {
    e.starts_with("connection")
}

/// A running `difftrace serve` and the benchmark's one connection.
pub struct Daemon {
    child: Child,
    /// Held open for the daemon's lifetime (it printed its address here).
    _stdout: BufReader<ChildStdout>,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Traces over every served corpus.
    traces: u64,
}

impl Daemon {
    /// Start the daemon over every `serve_mix` corpus in `dir` with one
    /// worker, and connect to it.
    pub fn start(difftrace: &Path, dir: &Path, traces: u64) -> Result<Daemon, String> {
        let files: Vec<PathBuf> = corpus_names()
            .iter()
            .map(|n| dir.join(format!("{n}.dtts")))
            .collect();
        let mut child = Command::new(difftrace)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1"])
            .args(&files)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: {line:?}"));
        };
        let stream = match TcpStream::connect(&addr) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("connecting to {addr}: {e}"));
            }
        };
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Daemon {
            child,
            _stdout: stdout,
            reader: BufReader::new(stream),
            writer,
            traces,
        })
    }

    /// Send one request and wait for its reply. A lost connection is
    /// an error; there is no reconnecting.
    fn request(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = request_line(req);
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("connection lost while sending: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("connection lost while reading: {e}"))?;
        if n == 0 {
            return Err("connection closed by the daemon".to_string());
        }
        parse_response(reply.trim_end())
    }

    /// One round: every query, in order. Returns each reply with its
    /// latency in seconds; fails only when the connection is lost.
    pub fn run_round(&mut self, round: &[Query]) -> Result<Vec<(f64, Response)>, String> {
        round
            .iter()
            .map(|q| {
                let t = Instant::now();
                let resp = self.request(&q.req)?;
                Ok((t.elapsed().as_secs_f64(), resp))
            })
            .collect()
    }

    /// A `metrics` request: its round trip in seconds, and the
    /// daemon's `store_trace_decodes` counter.
    pub fn metrics(&mut self) -> Result<(f64, u64), String> {
        let t = Instant::now();
        let resp = self.request(&Request {
            cmd: "metrics".to_string(),
            ..Request::default()
        })?;
        let dt = t.elapsed().as_secs_f64();
        if !resp.ok {
            return Err(format!("metrics: {}", resp.error));
        }
        let decodes = resp
            .output
            .lines()
            .find_map(|l| l.strip_prefix("store_trace_decodes "))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("metrics reply has no store_trace_decodes")?;
        Ok((dt, decodes))
    }

    /// Every served trace was decoded exactly once.
    pub fn check_decodes(&mut self) -> Result<u64, String> {
        let (_, decodes) = self.metrics()?;
        if decodes != self.traces {
            return Err(format!(
                "daemon decoded {decodes} traces for {} served",
                self.traces
            ));
        }
        Ok(decodes)
    }

    /// Peak resident memory of the daemon, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// End the daemon with a `shutdown` request and check that it
    /// exits; a daemon that lingers is killed and reported. The reply
    /// itself is not required: the daemon's process can exit before its
    /// connection thread writes it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = self.request(&Request {
            cmd: "shutdown".to_string(),
            ..Request::default()
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after `shutdown`".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with the daemon still running on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
