//! The MACS sweep service: the fault-tolerant sweep server
//! ([`mod@serve`]), the multi-process coordinator ([`coordinate`]), and the
//! line and socket plumbing they share ([`lineio`], [`transport`]). The
//! `macs-bench` binary exposes both services; `sweepbench/` at the
//! repository root is the benchmark that measures them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinate;
pub mod lineio;
pub mod serve;
pub mod transport;

pub use coordinate::{ChaosSpec, CoordinateOptions, Coordinator};
pub use lineio::{sniff_http, BoundedLines, LineEvent, Sniff};
pub use serve::{
    eval_point, eval_point_observed, serve, Evaluated, PointClass, ServeObs, ServeOptions,
};
pub use transport::Listen;
