//! End-to-end and per-layer benchmark of the MSS flow.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig12_grid|seed_sweep|table1_mc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload regenerates its artifact in a closed loop
//! for about `--seconds` seconds and reports the end-to-end metrics. With
//! `--trace 1` it makes one serial pass with the program's own `mss_obs`
//! spans switched on, and reports the per-layer metrics.
//! Outputs are checked in both modes, outside the timed region. The last
//! line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `perfbench/README.md` documents every workload and metric.

mod host;
mod magpie;
mod table1;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ops_ok_frac", "ratio"),
];

/// Per-layer metrics (`--trace 1`), with their units. A layer the workload
/// never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("pdk.characterize_s", "s"),
    ("core.prepare_s", "s"),
    ("gemsim.run_s", "s"),
    ("gemsim.runs", "count"),
    ("gemsim.run_max_s", "s"),
    ("gemsim.synth_floor_s", "s"),
    ("gemsim.sampled_accesses", "count"),
    ("gemsim.stream_reuse", "x"),
    ("gemsim.ns_per_access", "ns"),
    ("gemsim.l1_miss_ratio", "ratio"),
    ("gemsim.l2_miss_ratio", "ratio"),
    ("gemsim.dram_accesses", "count"),
    ("mcpat.evaluate_s", "s"),
    ("pipe.simulate_hit_ratio", "ratio"),
    ("pipe.simulate_misses", "count"),
    ("pipe.estimate_hit_ratio", "ratio"),
    ("vaet.context_s", "s"),
    ("vaet.mc_s", "s"),
    ("vaet.samples_per_s", "1/s"),
    ("exec.mc_speedup", "x"),
    ("exec.flow_efficiency", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.layer_s", "s"),
    ("trace.coverage", "ratio"),
];

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["fig12_grid", "seed_sweep", "table1_mc"];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: (kernel, scenario) pairs or Monte Carlo runs.
    pub attempted: u64,
    /// Operations that returned an error or failed their output check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra facts recorded with the result (iteration count, samples).
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a fact printed on the environment line.
    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.notes.insert(key, value.to_string());
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget of a timed run, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of a timed one.
    pub trace: bool,
}

fn parse_u64(raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => raw.replace('_', "").parse(),
    };
    parsed.map_err(|e| format!("bad number {raw:?}: {e}"))
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(parse_u64(&value)?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a metric value with every digit (`{:?}` round-trips an `f64`).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v:?}")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = host::pin_environment(args.trace);
    let outcome = match args.workload.as_str() {
        "fig12_grid" => magpie::fig12_grid(&args, &env),
        "seed_sweep" => magpie::seed_sweep(&args, &env),
        "table1_mc" => table1::table1_mc(&args, &env),
        _ => unreachable!("workload validated by parse_args"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(why) => {
            eprintln!("perfbench: {} failed to run: {why}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut record = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"trace\": {}", u8::from(args.trace)),
    ];
    record.extend(env.fields());
    record.extend(
        outcome
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))),
    );
    println!("{{\"env\": {{{}}}}}", record.join(", "));

    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .values
                .get(name)
                .unwrap_or_else(|| panic!("workload did not report metric {name}"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}
