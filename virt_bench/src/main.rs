//! `virt_bench` — the repository's benchmark: four closed-loop workloads
//! against a stock daemon in a child process, five end-to-end metrics,
//! and a per-layer ledger. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! virt_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! virt_bench self-check --sets <n> [--seconds <s>]
//! virt_bench manifest          # prints BENCHMARK.json
//! virt_bench serve ...         # internal: the daemon child
//! ```

mod catalogue;
mod child;
mod layers;
mod run;
mod serve;
mod stats;
mod trace;
mod workloads;

use catalogue::END_TO_END;
use run::{Options, Report};
use workloads::Kind;

#[global_allocator]
static ALLOCATOR: layers::CountingAllocator = layers::CountingAllocator::new();

const USAGE: &str = "usage: virt_bench --workload <small_call_unix|pipelined_call_unix|\
                     lifecycle_unix|bulk_stats_tls|lifecycle_durable_unix> --seed <n> --seconds <s> \
                     --trace <0|1> [--smoke]\n       virt_bench self-check --sets <n> \
                     [--seconds <s>]\n       virt_bench manifest";

/// `--flag value` pairs and bare flags of a command line.
struct Args(Vec<String>);

impl Args {
    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or(format!("{flag} needs a valid value\n{USAGE}")),
        }
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .ok_or(format!("{flag} is required\n{USAGE}"))
    }

    fn flag(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn seconds(args: &Args) -> Result<f64, String> {
    let seconds: f64 = args
        .value("--seconds")?
        .unwrap_or(catalogue::RUN_SECONDS as f64);
    if seconds.is_finite() && seconds > 0.0 && seconds <= 600.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds must be between 0 and 600\n{USAGE}"))
    }
}

fn run_once(args: &Args) -> Result<Report, String> {
    let name: String = args.required("--workload")?;
    let workload = Kind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or(format!("unknown workload '{name}'\n{USAGE}"))?;
    let trace: u8 = args.required("--trace")?;
    run::run(Options {
        workload,
        seed: args.required("--seed")?,
        seconds: seconds(args)?,
        trace: trace != 0,
        smoke: args.flag("--smoke"),
    })
}

/// Runs the whole matrix `sets` times and holds the benchmark to its own
/// bounds: per workload × end-to-end metric, the median of the second
/// half of the sets may not be worse than that of the first half by more
/// than the bound; the interquartile spread over all sets is printed
/// beside it.
fn self_check(args: &Args) -> Result<bool, String> {
    let sets: u64 = args.required("--sets")?;
    if sets < 3 {
        return Err("--sets must be at least 3".to_string());
    }
    let seconds = seconds(args)?;
    let mut agreed = true;
    println!(
        "| workload | metric | median, first half | median, second half | worse by | spread (IQR/median) | bound |"
    );
    println!("|---|---|---|---|---|---|---|");
    for workload in Kind::GATED {
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for seed in 1..=sets {
            let report = run::run(Options {
                workload,
                seed,
                seconds,
                trace: false,
                smoke: false,
            })?;
            if !report.correct() {
                return Err(format!(
                    "{} seed {seed}: {} failed",
                    workload.name(),
                    report.failed
                ));
            }
            for (column, (_, value)) in series.iter_mut().zip(&report.metrics) {
                column.push(*value);
            }
        }
        for (metric, values) in END_TO_END.iter().zip(&series) {
            let (first, second) = values.split_at(values.len() / 2);
            let (a, b) = (stats::median(first), stats::median(second));
            // Positive when the second half is the worse one.
            let gap = if metric.better == "lower" {
                b - a
            } else {
                a - b
            } / a;
            agreed &= gap <= metric.bound;
            println!(
                "| {} | {} | {a:.4} | {b:.4} | {:+.1} % | {:.1} % | {:.0} % |",
                workload.name(),
                metric.name,
                100.0 * gap,
                100.0 * stats::quartile_spread(values),
                100.0 * metric.bound,
            );
        }
    }
    Ok(agreed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve") => serve::run(&args[1..]).map(|()| true),
        Some("manifest") => {
            print!("{}", catalogue::manifest());
            Ok(true)
        }
        Some("self-check") => self_check(&Args(args)),
        _ => run_once(&Args(args)).map(|report| {
            println!("{}", report.to_json());
            report.correct()
        }),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("virt_bench: {message}");
            std::process::exit(2);
        }
    }
}
