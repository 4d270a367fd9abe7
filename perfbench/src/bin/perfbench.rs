//! The untraced benchmark binary: end-to-end metrics, system allocator.

fn main() {
    std::process::exit(cohortnet_perfbench::main_with(None));
}
