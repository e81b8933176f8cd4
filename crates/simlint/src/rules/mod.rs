//! Rule passes.
//!
//! [`line`](mod@line) holds the original pattern rules, now running over the
//! lexer's masked lines; [`shard`] holds the model-based shard-safety
//! rules (`shared-mutability`, `float-order`, `rng-provenance`).

pub mod line;
pub mod shard;
