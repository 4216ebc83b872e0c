//! The timed binary: the system allocator, nothing interposed.

fn main() -> std::process::ExitCode {
    comma_benchmark::cli::main()
}
