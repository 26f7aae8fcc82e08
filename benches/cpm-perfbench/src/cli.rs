//! The request line, the fresh-process children, and the entry point.
//!
//! The harness takes its flags as one whitespace-separated line on stdin
//! (`run.py` forwards its command line there): the repository's lint keeps
//! process-argument and environment reads inside its harness crates, so
//! this binary reads neither.

use crate::clock::Stopwatch;
use crate::reference::Reference;
use crate::report::{host_fingerprint, RunResult};
use crate::spans::Laps;
use crate::{layers, paper, run};
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::process::{Command, Stdio};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// [`crate::kilocore`].
    Kilocore,
    /// [`crate::paper`].
    Paper,
    /// [`crate::scenarios`].
    Scenarios,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Kilocore, Workload::Paper, Workload::Scenarios];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Kilocore => "kilocore",
            Workload::Paper => "paper",
            Workload::Scenarios => "scenarios",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Internal: run as a fresh-process child of this mode.
    pub child: Option<String>,
}

/// Parses `--workload`, `--seed`, `--seconds`, `--trace` (and the internal
/// `--child`) from a request line.
pub fn parse_args(line: &str) -> Result<Args, String> {
    let argv: Vec<&str> = line.split_whitespace().collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match *flag {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match *value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--child" => child = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        child,
    })
}

/// The entry point; returns the exit code.
pub fn main() -> i32 {
    let laps = Laps::started();
    let mut line = String::new();
    let parsed = std::io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(|e| format!("reading the request line: {e}"))
        .and_then(|_| parse_args(&line));
    let args = match parsed {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpm-perfbench: {e}");
            eprintln!(
                "request: --workload <kilocore|paper|scenarios> --seed <n> --seconds <s> \
                 --trace <0|1>"
            );
            return 2;
        }
    };
    if let Some(mode) = &args.child {
        return match child_main(mode, &args, laps) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("cpm-perfbench child {mode}: {e}");
                1
            }
        };
    }
    let result: RunResult = if args.trace {
        layers::traced(&args)
    } else {
        run::untraced(&args, laps)
    };
    println!("host {}", host_fingerprint(args.trace));
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print!("{}", result.to_text());
    println!("{}", result.to_json());
    0
}

/// Peak resident set of this process, in KiB (`VmHWM`).
pub fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reference-probe samples a set-up child takes after its set-up.
pub const REFERENCE_SAMPLES: usize = 4;

/// A child's report: `key value` lines.
pub type ChildReport = BTreeMap<String, f64>;

/// Runs this executable as a fresh-process child in `mode` and parses its
/// report. The child is waited for before this returns.
pub fn spawn_child(mode: &str, args: &Args) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning child {mode}: {e}"))?;
    let request = format!(
        "--child {mode} --workload {} --seed {}\n",
        args.workload.name(),
        args.seed
    );
    let sent = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(request.as_bytes());
    let out = child
        .wait_with_output()
        .map_err(|e| format!("waiting for child {mode}: {e}"))?;
    sent.map_err(|e| format!("writing child {mode}'s request: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {mode} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut report = ChildReport::new();
    for line in text.lines() {
        if let Some((k, v)) = line.split_once(' ') {
            if let Ok(x) = v.trim().parse::<f64>() {
                report.insert(k.to_string(), x);
            }
        }
    }
    Ok(report)
}

/// A child's work. `setup`: the workload's set-up, timed in laps from
/// process start to the first op, then the reference probe's fastest sweep
/// over [`REFERENCE_SAMPLES`] samples. `setup-rss`: the same, then one episode
/// so the peak resident set is the steady state's. `coresetup`: cold
/// paper-coordinator construction and calibration. `sweep`: one cold and
/// two warm `experiments all` sweeps on a one-worker pool.
fn child_main(mode: &str, args: &Args, mut laps: Laps) -> Result<(), String> {
    match mode {
        "setup" | "setup-rss" => {
            let mut work = run::setup(args.workload, args.seed, &mut laps)?;
            for (i, lap) in laps.laps().iter().enumerate() {
                println!("lap.{i} {lap:e}");
            }
            let mut reference = Reference::new();
            for _ in 0..REFERENCE_SAMPLES {
                reference.sample();
            }
            println!("reference_s {:e}", reference.best());
            if mode == "setup-rss" {
                let mut log = run::OpLog::new(work.entries());
                work.steady_episode(&mut log);
                if log.failed > 0 {
                    return Err(format!("{} of {} ops failed", log.failed, log.attempted));
                }
                let rss = peak_rss_kb().ok_or("no VmHWM in /proc/self/status")?;
                println!("rss_kb {rss}");
            }
            let [ph, pm, ch, cm] = paper::memo_counts();
            println!("probe_hits {ph}\nprobe_misses {pm}\ncalib_hits {ch}\ncalib_misses {cm}");
            Ok(())
        }
        "coresetup" => {
            println!("core_setup_s {:e}", paper::cold_core_setup(args.seed));
            Ok(())
        }
        "sweep" => {
            let pool = cpm_runtime::Pool::new(1);
            let mut clock = Stopwatch::started();
            let times: Vec<f64> = (0..3)
                .map(|_| clock.time(|| cpm_bench::run_all_on(&pool).reports.len()).1)
                .collect();
            println!("sweep_cold_s {:e}", times[0]);
            println!("sweep_warm_s {:e}", crate::stats::min(&times[1..]));
            Ok(())
        }
        other => Err(format!("unknown child mode {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_line() {
        let a = parse_args("--workload paper --seed 7 --seconds 3 --trace 1\n").unwrap();
        assert_eq!(a.workload, Workload::Paper);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(a.child.is_none());
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload paper --trace 2",
            "--workload paper --seconds 0",
            "--workload paper --bogus",
        ] {
            assert!(parse_args(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
