//! `perfbench --workload <table1|kernel-loop|serve-mix> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints every metric
//! with its unit, then the result line (one JSON object) last.
//!
//! `perfbench loadgen …` is the open-loop generator process the workloads
//! start, and `perfbench setup --workload <w> …` times one set-up in a
//! fresh process; neither is meant to be run by hand.

use perfbench::report::{result_line, stamp, Outcome};
use perfbench::{kernel_loop, serve_mix, table1, RunOpts, END_TO_END, PER_LAYER};
use std::path::PathBuf;

const USAGE: &str =
    "usage: perfbench --workload <table1|kernel-loop|serve-mix> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

/// Where the deterministic counts of a run are kept for later runs of the
/// same sources, workload, seed, length and mode: the build directory, so
/// a fresh checkout starts clean.
fn counts_path(workload: &str, opts: &RunOpts) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    dir.join("perfbench-counts").join(format!(
        "{workload}-{}-{}-{}-{}.txt",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        env!("PERFBENCH_SOURCE_HASH")
    ))
}

/// Checks this run's deterministic counts against an earlier run with the
/// same key (see [`counts_path`]), recording them on the first run.
/// Returns false on a mismatch.
fn counts_repeat(workload: &str, opts: &RunOpts, out: &Outcome) -> bool {
    let text: String = out
        .counts
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    let path = counts_path(workload, opts);
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != text => {
            println!(
                "# counts differ from an earlier run with seed {}:\n# was {prev:?}\n# now {text:?}",
                opts.seed
            );
            false
        }
        Ok(_) => true,
        Err(_) => {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(&path, text);
            true
        }
    }
}

fn main() {
    // Before `serve-mix` pins the process to one CPU.
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("loadgen") {
        perfbench::loadgen::child_main(&args[1..]);
        return;
    }
    let setup = args.first().map(String::as_str) == Some("setup");
    let (workload, opts) = match parse_args(&args[usize::from(setup)..]) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if setup {
        match perfbench::setup_once(&workload, &opts) {
            Ok(secs) => println!("{secs:?}"),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                std::process::exit(2);
            }
        }
        return;
    }
    let (out, scale) = match workload.as_str() {
        "table1" => (table1::run(&opts), table1::scale_label()),
        "kernel-loop" => (kernel_loop::run(&opts), kernel_loop::scale_label()),
        "serve-mix" => (serve_mix::run(&opts), serve_mix::scale_label()),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let repeat = counts_repeat(&workload, &opts, &out);
    let correct = repeat && out.failed == 0 && out.attempted > 0;

    println!(
        "# stamp {}",
        stamp(&workload, opts.seed, opts.trace, &scale, nproc)
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for (k, v) in &out.counts {
        println!("# count {k} = {v}");
    }
    let names: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for n in names {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == *n)
            .unwrap_or_else(|| panic!("{workload} did not report {n}"));
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, &out, names));
}
