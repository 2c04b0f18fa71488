//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path lrsbench/Cargo.toml -- \
//!     --workload onehop-lossy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed",
//! "metrics": {name: {"value", "unit"}}}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.

use lrsbench::measure::{end_to_end, per_layer, Outcome};
use lrsbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lrsbench: {e}");
            eprintln!("usage: lrsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("lrsbench: create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let mut out = if args.trace {
        per_layer(args.workload, args.seed, &work)
    } else {
        end_to_end(args.workload, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
            out.correct = false;
        }
    }
    eprintln!(
        "lrsbench {} seed {} trace {}: {} jobs, {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    eprintln!(
        "  kernels: gf={} sha={}",
        lrs_erasure::kernel::Kernel::active().name(),
        lrs_crypto::sha256_mb::ShaKernel::active().name()
    );
    for m in &out.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        eprintln!("  note: {n}");
    }
    for p in out.problems.iter().take(20) {
        eprintln!("  problem: {p}");
    }
    println!("{}", render(&out));
    ExitCode::SUCCESS
}
