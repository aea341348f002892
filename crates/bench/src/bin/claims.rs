//! `claims` — runs the paper's figures, tables and ablations; see the
//! `gridsched_bench` crate docs for the names and flags.

fn main() {
    gridsched_bench::run_claims(std::env::args().skip(1));
}
