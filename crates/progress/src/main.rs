//! `lfrt-progress` — the progress-guarantee lint binary.
//!
//! ```text
//! cargo run -p lfrt-progress                      # lint the workspace
//! cargo run -p lfrt-progress -- --list            # + declared-op table
//! cargo run -p lfrt-progress -- --json report.json
//! cargo run -p lfrt-progress -- --root DIR --manifest FILE
//! ```
//!
//! Exit status: 0 when every finding is baselined (with justification),
//! no baseline entry is stale, and the manifest covers the public op set
//! exactly; 1 otherwise; 2 on I/O or parse errors. Unlike `ordlint`, a
//! missing manifest is an error, not an empty baseline — the manifest IS
//! the contract being checked.

use std::process::ExitCode;

use lfrt_progress::{analyze, report, LINT};
use lfrt_srcscan::report::{run, Outcome};

fn main() -> ExitCode {
    run(&LINT, |root, manifest_text, list| {
        let analysis = analyze(root, manifest_text)?;
        Ok(Outcome {
            text: report::render_text(&analysis, list),
            json: report::to_json(&analysis),
            clean: report::is_clean(&analysis),
        })
    })
}
