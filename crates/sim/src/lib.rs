//! Deterministic discrete-event simulation kernel.
//!
//! The ICDE 2003 SteMs paper evaluates against remote web sources, running
//! each query module in its own thread and implementing "index lookups ...
//! as sleeps of identical duration" (paper Table 3). The phenomena its
//! experiments exhibit — head-of-line blocking behind a slow index,
//! asynchronous probe/response overlap, scan-rate-limited hash joins,
//! competing access methods with different speeds — are *queueing* effects.
//!
//! This crate reproduces them with a single-threaded, virtual-time,
//! discrete-event simulator so every figure regenerates deterministically on
//! any machine. (The paper itself notes the modules' asynchrony "can also be
//! achieved in a single-threaded implementation".)
//!
//! Pieces:
//!
//! * [`Time`] / [`Duration`] — virtual time in microseconds, with second
//!   conversions matching the paper's axes.
//! * [`EventQueue`] — a binary-heap agenda with stable FIFO tie-breaking.
//! * [`StallWindows`] — source unavailability intervals (for the
//!   source-stall experiments).
//! * [`SimRng`] — a small, seedable PRNG so workloads and
//!   policies are reproducible without threading a `rand` generic through
//!   every API.
//! * [`Metrics`] / [`Series`] — counters and exact `(time, value)` series
//!   with CSV export; these are what the bench binaries print. A name is
//!   resolved once to a [`MetricId`] and updated by id from then on; an
//!   id that was registered but never touched is invisible to every
//!   reader.
//! * [`ascii_plot`] — terminal rendering of series for the bench harness.

mod agenda;
mod latency;
mod metrics;
mod plot;
mod rng;
mod time;

pub use agenda::EventQueue;
pub use latency::StallWindows;
pub use metrics::{MetricId, Metrics, Series};
pub use plot::{ascii_plot, PlotSpec};
pub use rng::SimRng;
pub use time::{burst_gap, secs, secs_f, to_secs, Duration, Time, MICROS_PER_SEC};
