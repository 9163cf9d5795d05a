//! The container-based serverless baseline ("Knative" in the paper's
//! evaluation, §6.1).
//!
//! Containers here are honest simulations, not sleeps: cold starts copy a
//! multi-megabyte image into a private writable layer, assemble overlay
//! indices and run boot passes over every page; state access ships whole
//! values from the global tier into private per-container copies with
//! byte-touching serialisation; chaining pays HTTP framing through a
//! gateway; hosts refuse containers beyond their memory budget (OOM). Every
//! byte still crosses the same measured fabric as FAASM, so the two
//! platforms are compared on identical substrates — only the isolation
//! mechanism differs.

#![warn(missing_docs)]

pub mod container;
pub mod image;
pub mod platform;

pub use container::{serialise, Container, ContainerApi, ContainerGuest, HttpRouter};
pub use image::{publish_image, ImageConfig, DEFAULT_IMAGE_BYTES, IMAGE_PATH};
pub use platform::{BaselineConfig, BaselineHost, BaselinePlatform};
