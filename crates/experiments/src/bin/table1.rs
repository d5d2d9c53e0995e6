//! Reproduces **Table I**: simulation statistics for all scheduling
//! strategies — per (R, SR) cell, the percentage of optimal periods, the
//! average/median/maximum slowdown ratios vs HeRAD, and the average core
//! usage per type.
//!
//! Usage: `table1 [--chains N] [--json PATH]` (default 1000 chains, as in
//! the paper). `--json` also writes the table as one canonical-JSON
//! document with a row per (R, SR, strategy); the codec carries no
//! floats, so the statistics travel as fixed-point decimal strings.

use std::collections::BTreeMap;

use amp_core::json::Json;
use amp_experiments::{run_campaign, CampaignConfig, SweepOutcome};
use amp_workload::{table1_resources, PAPER_STATELESS_RATIOS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let chains = flag_value(&args, "--chains")
        .map(|v| v.parse().expect("--chains takes a number"))
        .unwrap_or(1000);
    let json_path = flag_value(&args, "--json");

    println!("Table I: simulation statistics ({chains} chains of 20 tasks per cell)");
    println!(
        "{:<10} {:<10} {:<6} {:>32} {:>16}",
        "R=(b,l)", "Strategy", "SR", "(%opt, avg, med, max)", "(b_used, l_used)"
    );

    let mut all = Vec::new();
    for resources in table1_resources() {
        for sr in PAPER_STATELESS_RATIOS {
            let mut config = CampaignConfig::paper(resources, sr);
            config.chains = chains;
            let outcome = run_campaign(&config);
            for s in &outcome.strategies {
                let summary = s.summary();
                let usage = s.core_usage();
                println!(
                    "{:<10} {:<10} {:<6.1} {:>32} ({:6.2}, {:6.2})",
                    resources.to_string(),
                    s.name,
                    sr,
                    summary.table_cell(),
                    usage.big,
                    usage.little
                );
            }
            all.push(outcome);
        }
        println!();
    }

    if let Some(path) = json_path {
        let json = table_json(chains, &all).render();
        std::fs::write(path, json).expect("writing the JSON report");
        eprintln!("wrote {path}");
    }
}

/// The table as `{"table":"I","chains":N,"rows":[...]}`, one row per
/// (R, SR, strategy) in print order.
fn table_json(chains: usize, outcomes: &[SweepOutcome]) -> Json {
    let fixed = |x: f64, digits: usize| Json::Str(format!("{x:.digits$}"));
    let mut rows = Vec::new();
    for outcome in outcomes {
        let config = &outcome.config;
        for s in &outcome.strategies {
            let summary = s.summary();
            let usage = s.core_usage();
            let row = BTreeMap::from([
                ("big".to_string(), Json::Int(config.resources.big)),
                ("little".to_string(), Json::Int(config.resources.little)),
                (
                    "stateless_ratio".to_string(),
                    fixed(config.stateless_ratio, 1),
                ),
                ("strategy".to_string(), Json::Str(s.name.clone())),
                (
                    "optimal_pct".to_string(),
                    fixed(summary.optimal_fraction * 100.0, 1),
                ),
                ("avg".to_string(), fixed(summary.avg, 4)),
                ("med".to_string(), fixed(summary.med, 4)),
                ("max".to_string(), fixed(summary.max, 4)),
                ("big_used".to_string(), fixed(usage.big, 2)),
                ("little_used".to_string(), fixed(usage.little, 2)),
            ]);
            rows.push(Json::Obj(row));
        }
    }
    Json::Obj(BTreeMap::from([
        ("table".to_string(), Json::Str("I".to_string())),
        ("chains".to_string(), Json::Int(chains as u64)),
        ("rows".to_string(), Json::Arr(rows)),
    ]))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
