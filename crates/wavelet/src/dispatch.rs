//! Name of the kernel family this build runs, for bench host notes.
//!
//! There is one family: the portable slice loops in [`crate::rowops`] and
//! `j2k_core::kernels`, which LLVM autovectorizes for the target.

/// The kernel family every bench report records alongside its host.
pub fn description() -> String {
    "scalar".to_string()
}
