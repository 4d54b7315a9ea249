//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_cs|hot_read|namespace> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds the workload's testbed several times (reporting the
//! median set-up time), then drives the last one with a single client in
//! a closed loop for `--seconds` of host time. Every byte read back is
//! checked against a shadow copy of what was committed. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from a run whose blocks alternate
//! between traced and untraced) with `--trace 1`. Every metric is also
//! printed by name with its unit on the lines before it. See README.md.

mod hot_read;
mod namespace;
mod paper_cs;
mod record;
mod report;
mod rig;
mod rng;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use record::Recorder;
use report::{HostUsage, Run};
use workload::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "paper_cs" => run::<paper_cs::PaperCs>(&args),
        "hot_read" => run::<hot_read::HotRead>(&args),
        "namespace" => run::<namespace::Namespace>(&args),
        other => Err(format!(
            "unknown workload {other:?} (paper_cs, hot_read, namespace)"
        )),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload; `Ok(false)` when the oracle found a mismatch.
fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    let mut rec = Recorder::new();
    let mut setup_s = Vec::with_capacity(W::SETUP_REPS);
    let mut built: Option<W> = None;
    for _ in 0..W::SETUP_REPS {
        // The previous testbed is dropped outside the timed set-up. Time
        // inside calls that failed is left out: it is the buffer pool's
        // retry loop, up to half of a set-up and the most variable part,
        // and it is reported as failures instead.
        drop(built.take());
        let failed0 = rec.failed_host_s;
        let t0 = Instant::now();
        built = Some(W::setup(args.seed, &mut rec)?);
        setup_s.push(t0.elapsed().as_secs_f64() - (rec.failed_host_s - failed0));
    }
    let mut w = built.ok_or("no set-up ran")?;
    let (setup_attempted, setup_failed) = (rec.attempted, rec.failed);

    rec.start_measuring();
    let budget = Duration::from_secs(args.seconds);
    let usage0 = HostUsage::now();
    let before = w.rig().sample();
    let t0 = Instant::now();
    let mut mismatch = None;
    let mut blocks = 0u64;
    while t0.elapsed() < budget {
        // With tracing on, every other block is traced, so the untraced
        // blocks in between measure what tracing costs.
        let traced = args.trace && blocks % 2 == 1;
        blocks += 1;
        if let Err(e) = rec.block(&mut w, traced) {
            mismatch = Some(e);
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let delta = w.rig().sample().since(&before);
    let usage = HostUsage::now().since(&usage0);

    let run = Run {
        workload: &args.workload,
        seed: args.seed,
        trace: args.trace,
        rec: &rec,
        delta,
        queue_depth_hw: w.rig().queue_depth_hw(),
        setup_s,
        setup_attempted,
        setup_failed,
        wall_s,
        usage,
        peak_rss_mb: HostUsage::peak_rss_mb(),
    };
    if let Some(e) = &mismatch {
        eprintln!("perfbench: oracle mismatch: {e}");
    }
    if args.trace {
        if let Err(e) = report::write_spans(&args.workload, &rec) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }
    run.print(mismatch.is_none());
    Ok(mismatch.is_none())
}
