//! The traced binary: the only one with an allocator interposed, so the
//! counter pass can report heap traffic per event. `wall_s` and
//! `peak_rss_mb` never come from here.

#[global_allocator]
static COUNTING: comma_rt::alloc::CountingAlloc = comma_rt::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    comma_benchmark::trace::main()
}
