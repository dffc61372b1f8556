//! Block storage layer.
//!
//! The paper stores data points in external-memory style *blocks* of capacity
//! `B` (100 in all experiments) and reports the number of block accesses per
//! query as the I/O cost proxy — all indices, learned and traditional, sit on
//! top of the same block abstraction.  This crate provides that abstraction:
//!
//! * [`Block`] — a fixed-capacity container of points with `prev`/`next`
//!   links so that consecutive blocks can be scanned like a linked list
//!   (Fig. 4 of the paper), stored struct-of-arrays (separate `x`/`y`/`id`
//!   lanes) with the tight MBR of its points in the header,
//! * [`BlockStore`] — an arena of blocks, with the chain walks
//!   ([`BlockStore::chain_range`]) the learned families scan along,
//! * [`kernels`] — chunked, autovectorizable scan kernels (batch
//!   rect-contains, batch distance-squared, branchless MINDIST, candidate
//!   filters) shared by every block-backed query path,
//! * [`directory`] — the one traversal (point, window, kNN, range, join)
//!   of every tree-shaped family, generic over a node view.
//!
//! Everything is kept in main memory, exactly as in the paper's experimental
//! setup ("We run all indices and algorithms in main memory for ease of
//! comparison"); block accesses are what an external-memory deployment would
//! pay.  Access *accounting* lives with the queries, not here: query code
//! charges each modelled I/O to its `common::QueryContext`, so the store
//! stays free of interior mutability and indices built on it are `Sync`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod directory;
pub mod kernels;
mod snapshot;
mod store;

pub use block::{Block, BlockId};
pub use snapshot::SECTION_STORE_V2;
pub use store::{BlockStore, ChainRange};
