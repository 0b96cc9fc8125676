//! # safedm-bench — experiment harness
//!
//! Shared plumbing for the table/figure regeneration binaries (see
//! `src/bin/`), the campaign service and its HTTP front end.

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod http;
pub mod service;
