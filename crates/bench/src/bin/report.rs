//! Regenerate every experiment table (EXPERIMENTS.md source). Usage:
//!
//! ```text
//! cargo run -p deepweb-bench --bin report --release            # all, paper scale
//! cargo run -p deepweb-bench --bin report --release -- e03    # one experiment
//! cargo run -p deepweb-bench --bin report --release -- smoke  # all, smoke scale
//! ```

use deepweb_core::experiments::{Scale, ALL};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut scale = Scale::Paper;
    let mut only = None;
    for arg in std::env::args().skip(1) {
        if arg == "smoke" {
            scale = Scale::Smoke;
        } else if ALL.iter().any(|(id, _)| *id == arg) {
            only = Some(arg);
        } else {
            eprintln!("report: unknown argument `{arg}` (expected `smoke` or one of e01..e13)");
            return ExitCode::FAILURE;
        }
    }
    let mut tables = 0;
    for (id, run) in ALL {
        if only.as_deref().is_none_or(|o| o == id) {
            for t in run(scale) {
                println!("{}", t.render());
                tables += 1;
            }
        }
    }
    eprintln!("(generated {tables} tables at {scale:?} scale)");
    ExitCode::SUCCESS
}
