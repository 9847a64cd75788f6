//! End-to-end `wasabid` request benchmark.
//!
//! One load-generator process spawns a real `wasabid` on a unix socket
//! and drives it with closed-loop clients through the public
//! [`wasabi_server::Client`]. See `README.md` next to this package for
//! the workloads, the metrics, and why each exists.
//!
//! | module | role |
//! |---|---|
//! | [`plan`] | seeded inputs: modules, request pool, client sequences |
//! | [`oracle`] | in-process reference results, response checking |
//! | [`daemon`] | the `wasabid` child and its `/proc` numbers |
//! | [`load`] | set-up and the closed-loop clients |
//! | [`replay`] | the traced run's in-process, per-layer replay |
//! | [`stats`] | percentiles and outcome arithmetic |

pub mod daemon;
pub mod load;
pub mod oracle;
pub mod plan;
pub mod replay;
pub mod stats;
