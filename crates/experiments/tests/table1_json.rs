//! `table1 --json` writes the table itself: a canonical-JSON document with
//! one row per (R, SR, strategy), each carrying the paper's statistics.

use amp_core::json::Json;
use amp_core::sched::paper_strategies;
use amp_workload::{table1_resources, PAPER_STATELESS_RATIOS};
use std::process::Command;

#[test]
fn json_report_holds_every_row() {
    let path = std::env::temp_dir().join(format!("amp-table1-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--chains", "2", "--json"])
        .arg(&path)
        .output()
        .expect("table1 runs");
    assert!(status.status.success(), "table1 failed: {status:?}");
    let text = std::fs::read_to_string(&path).expect("table1 wrote the report");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(&text).expect("the report is canonical JSON");
    let obj = doc.as_obj().expect("an object");
    assert_eq!(obj["chains"], Json::Int(2));
    let rows = obj["rows"].as_arr().expect("a row array");
    let field = |row: &Json, key: &str| row.as_obj().expect("row object")[key].clone();
    let mut expected = 0;
    for r in table1_resources() {
        for sr in PAPER_STATELESS_RATIOS {
            for s in paper_strategies() {
                expected += 1;
                let row = rows
                    .iter()
                    .find(|row| {
                        field(row, "big") == Json::Int(r.big)
                            && field(row, "little") == Json::Int(r.little)
                            && field(row, "stateless_ratio") == Json::Str(format!("{sr:.1}"))
                            && field(row, "strategy") == Json::Str(s.name().to_string())
                    })
                    .unwrap_or_else(|| panic!("no row for {r}, SR {sr}, {}", s.name()));
                for key in [
                    "optimal_pct",
                    "avg",
                    "med",
                    "max",
                    "big_used",
                    "little_used",
                ] {
                    let value = field(row, key);
                    let number: f64 = value
                        .as_str()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| panic!("{key} is not a decimal string: {value:?}"));
                    assert!(number >= 0.0, "{key} is negative");
                }
                if s.name() == "HeRAD" {
                    // The reference strategy is optimal on every chain.
                    assert_eq!(field(row, "optimal_pct"), Json::Str("100.0".to_string()));
                }
            }
        }
    }
    assert_eq!(rows.len(), expected, "one row per (R, SR, strategy)");
}
