//! # scoreboard — one layered benchmark for the rUID service
//!
//! Four fixed workloads (`read_cold`, `read_hot`, `write_mixed`,
//! `restart_catchup`) drive an in-process
//! `Server::start(ServerConfig::default())` over real loopback sockets
//! from one client thread, check every answer, and report the end-to-end
//! metrics of `BENCHMARK.json`. A separate traced run replays each
//! workload's script in-process with a span around every call into a
//! layer's public function and reports the per-layer metrics.
//!
//! See `README.md` in this directory for the tables and the commands.

#![warn(missing_docs)]

pub mod compare;
pub mod harness;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
