#![forbid(unsafe_code)]

fn main() {
    aquila_bench::cli::main_for("sweep");
}
