//! The container-based serverless baseline ("Knative" in the paper's
//! evaluation, §6.1).
//!
//! Containers here are honest simulations, not sleeps: cold starts copy a
//! multi-megabyte image into a private writable layer, assemble overlay
//! indices and run boot passes over every page; state access ships whole
//! values from the global tier into private per-container copies with
//! byte-touching serialisation; every hop of a call pays HTTP framing;
//! hosts refuse containers beyond their memory budget (OOM). The platform
//! is a FAASM [`faasm_core::Cluster`] whose functions run in containers
//! instead of Faaslets: dispatch, workers, pools, metrics, the state tier
//! and the fabric are the same code, so only the isolation mechanism
//! differs.

#![warn(missing_docs)]

pub mod container;
pub mod image;
pub mod platform;

pub use container::{serialise, Container, ContainerApi, ContainerGuest, HttpRouter};
pub use image::{publish_image, ImageConfig, DEFAULT_IMAGE_BYTES, IMAGE_PATH};
pub use platform::{BaselineConfig, BaselinePlatform};
