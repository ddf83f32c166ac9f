//! `pipebench --workload <posthoc|whatif|live> --seed <n> --seconds <s>
//! --trace <0|1>`
//!
//! Prints every metric by name with its unit and sample count, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of the traced phase. An output that differs from
//! its reference exits non-zero, naming workload, op and seed.

use std::process::ExitCode;

use limba_pipebench::{run, Config, Scale, WORKLOADS};

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_dir: std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".pipebench-work")
            .join(std::process::id().to_string()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} expects a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(bad()),
        }
    }
    if cfg.workload.is_empty() {
        return Err(format!(
            "--workload is required: one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    if let Some(parent) = cfg.work_dir.parent() {
        // Removes the shared work directory once no run uses it.
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipebench: output check failed or run aborted: {e}");
            ExitCode::FAILURE
        }
    }
}
