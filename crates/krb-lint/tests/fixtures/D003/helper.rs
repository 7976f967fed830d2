//! The laundering helper: lives in a non-governed crate (`bench`), so
//! clippy's `disallowed_types` never sees the `Instant` below from a
//! deterministic crate. D003 exists to follow the call edge here.

use std::time::Instant;

pub fn stamp_us(epoch: Instant) -> u64 {
    Instant::now().duration_since(epoch).as_micros() as u64
}
