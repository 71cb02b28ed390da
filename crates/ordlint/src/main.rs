//! `lfrt-ordlint` — the memory-ordering lint binary.
//!
//! ```text
//! cargo run -p lfrt-ordlint                      # lint the workspace
//! cargo run -p lfrt-ordlint -- --list            # + full site inventory
//! cargo run -p lfrt-ordlint -- --json report.json
//! cargo run -p lfrt-ordlint -- --root DIR --baseline FILE
//! ```
//!
//! Exit status: 0 when every finding is baselined (with justification) and
//! no baseline entry is stale; 1 otherwise; 2 on I/O or parse errors.

use std::process::ExitCode;

use lfrt_ordlint::{analyze_with_baseline, report, LINT};
use lfrt_srcscan::report::{run, Outcome};

fn main() -> ExitCode {
    run(&LINT, |root, baseline_text, list| {
        let analysis = analyze_with_baseline(root, baseline_text)?;
        Ok(Outcome {
            text: report::render_text(&analysis, list),
            json: report::to_json(&analysis),
            clean: analysis.matched.is_clean(),
        })
    })
}
