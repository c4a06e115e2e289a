#![doc = include_str!("../README.md")]

pub use fftkit;
pub use isdf;
pub use lrtddft;
pub use mathkit;
pub use parcomm;
pub use pwdft;
pub use served;
