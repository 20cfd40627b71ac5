//! The benchmark of the ADAPT reproduction, measured from outside the
//! program: it generates each workload's inputs from a seed, times calls
//! into the program's public functions, checks their outputs, and
//! reports end-to-end metrics (untraced run) or per-layer metrics
//! (traced run). See `README.md` in this directory.

// Denied rather than forbidden: reading the thread CPU clock (`clock`)
// is one foreign call.
#![deny(unsafe_code)]

pub mod clock;
pub mod kernels;
pub mod probe;
pub mod reference;
pub mod session;
pub mod stats;
pub mod workload;
