//! `cpm-perfbench --workload <kilocore|paper|scenarios> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one benchmark workload and prints
//! its metrics; the last stdout line is the result object.

fn main() {
    std::process::exit(cpm_perfbench::cli::main());
}
