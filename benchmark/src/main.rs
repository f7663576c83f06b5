fn main() {
    std::process::exit(pmabench::cli::main(std::env::args().skip(1).collect()));
}
