//! `ruid-xml` — command-line front end for the rUID numbering scheme.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use ruid_cli::{run, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
