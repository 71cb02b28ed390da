//! `lfrt` — command-line front end for the lockfree-rt workspace.
//!
//! ```text
//! lfrt workload --tasks 10 --objects 10 --load 1.1 --sharing lockfree --scheduler rua [--cpus 2] [--gantt]
//! lfrt admit    --tasks 5 --objects 3 --load 0.2 --s 20
//! lfrt bound    --a 2 --critical 10000 --others 3:4000,1:8000
//! lfrt fit      --window 8000 --horizon 400000 < arrivals.csv
//! lfrt summary  < records.csv
//! ```

use std::io::{self, BufReader, Read};
use std::process::ExitCode;

use lfrt_json::Args;

mod commands;

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args::parse(argv);
    let result = match command.as_str() {
        "workload" => commands::workload(&args),
        "admit" => commands::admit(&args),
        "bound" => commands::bound(&args),
        "fit" => commands::fit(&args, &stdin_string()),
        "summary" => commands::summary(&mut locked_stdin()),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn stdin_string() -> String {
    let mut buffer = String::new();
    let _ = io::stdin().read_to_string(&mut buffer);
    buffer
}

fn locked_stdin() -> BufReader<io::Stdin> {
    BufReader::new(io::stdin())
}

const USAGE: &str = "\
lfrt — lock-free real-time scheduling toolbox

USAGE:
  lfrt workload [--tasks N] [--objects K] [--accesses M] [--load X]
                [--sharing lockfree|lockbased|ideal] [--scheduler rua|rua-lockbased|edf|edf-pi|rm|llf|lbesa]
                [--s TICKS] [--r TICKS] [--cpus M] [--seed S] [--gantt]
      run a seeded UAM workload on the simulator and print the metrics
  lfrt admit    [--tasks N] [--objects K] [--accesses M] [--load X] [--s TICKS] [--seed S]
      run the sufficient admission test on the generated task set
  lfrt bound    --critical C [--a A] [--others a:w,a:w,...]
      evaluate the Theorem 2 retry bound
  lfrt fit      [--window W] [--horizon H]   (arrival times on stdin, one per line)
      fit the tightest UAM to a trace and report its statistics
  lfrt summary                               (job-record CSV on stdin)
      summarize a record file: AUR, CMR, sojourn percentiles, retries
";
