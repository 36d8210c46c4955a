#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # ss-serve — the concurrent ShapeShifter codec service
//!
//! Turns the workspace's codec, pipeline and shard-store machinery into
//! a long-running service with two front doors:
//!
//! * **In-process**: [`Service`] owns a worker pool draining one
//!   bounded queue; a cloneable [`ServeHandle`] submits work with
//!   non-blocking admission and typed rejection.
//! * **TCP**: [`Server`] speaks **SSRP** — a length-prefixed,
//!   CRC-32-guarded framing ([`protocol`]) carrying six ops: encode,
//!   decode, get (from an `ss-store` model), stats, health, and drain.
//!
//! The contracts, in one place:
//!
//! * **Typed overload, never a hang.** Admission uses
//!   `BoundedQueue::try_push`; a full queue answers
//!   [`Status::Overloaded`](protocol::Status) with nothing enqueued.
//! * **Graceful drain, zero loss.** [`ServeHandle::drain`] refuses new
//!   work while every admitted request still gets exactly one response;
//!   [`Service::shutdown`] then closes the queue (pending items remain
//!   poppable) and joins the pool.
//! * **Hostile input is refused, typed.** Every malformed frame or body
//!   — any single-bit flip, any truncation, any hostile length — is a
//!   dedicated error variant before allocation or dispatch; the fuzz
//!   suite proves it bit by bit.
//! * **SLO accounting built in.** A service-owned `ss-trace` recorder
//!   collects serve counters and per-op log2 latency histograms
//!   (p50/p99/p999), exported as JSON by the stats op.
//!
//! # Quick start
//!
//! ```
//! use ss_serve::{ServeConfig, Service};
//! use ss_tensor::{FixedType, Shape, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut service = Service::new(ServeConfig::new().with_workers(2))?;
//! service.start();
//! let handle = service.handle();
//!
//! let t = Tensor::from_vec(Shape::flat(4), FixedType::I16, vec![1, -2, 0, 300])?;
//! let packed = handle.encode(&t)?;      // SSPK container bytes
//! assert_eq!(handle.decode(&packed)?, t);
//!
//! let report = service.shutdown();
//! assert_eq!(report.completed, 2);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod protocol;
pub mod server;
pub mod service;
pub mod wire;

pub use error::ServeError;
pub use protocol::{Frame, FrameWriter, Kind, Op, ProtocolError, Status};
pub use server::{Client, Server, MAX_CLIENT_IN_FLIGHT};
pub use service::{DrainReport, PendingReply, Response, ServeConfig, ServeHandle, Service};
pub use wire::WireError;
