//! Pebbles: the unit of computation and communication in the database model.
//!
//! Pebble `(i, t)` is the computation guest processor (cell) `i` performs
//! at guest step `t`. In a host simulation a pebble carries both the
//! computed value and the database update that computation incurred
//! (paper, §2: "a pebble does not contain a snapshot of the whole database
//! but only the changes incurred by one computation").
//!
//! Cells are 0-based. Steps are 1-based; "step 0" denotes the initial state,
//! which every host processor knows at time 0 (initial databases and initial
//! pebble values are copied before the computation begins).

/// The value computed by one pebble. Real guest programs fold whatever they
/// compute into a deterministic 64-bit word so that redundant copies can be
/// compared bit-for-bit across host processors.
pub type PebbleValue = u64;
