//! Snapshots: the complete structure (config, blocks, node arena with all
//! trained sub-models, marginal CDFs, drift counters) as sections of a
//! [`persist`] snapshot.  Loading never retrains anything: the saved
//! weights and error bounds are served as-is.

use super::{LeafMaint, Rsmi};
use crate::node::{InternalNode, LeafNode, Node};
use crate::pmf::PiecewiseCdf;
use crate::RsmiConfig;
use mlp::ScaledRegressor;
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use sfc::CurveKind;
use storage::BlockStore;

/// Section tag of the RSMI metadata (config and counts).
const SECTION_RSMI_META: u32 = 0x5101;
/// Section tag of the RSMI node arena (models, MBRs, block ranges).  The
/// retired `0x5102` held the same record with leaf error bounds measured
/// under the libm sigmoid; today's `predict` can move a prediction across
/// them, so that tag is refused rather than loaded unsound.
const SECTION_RSMI_NODES: u32 = 0x5105;
/// Section tag of the marginal CDFs used by the kNN search region.
const SECTION_RSMI_CDF: u32 = 0x5103;
/// Section tag of the per-leaf maintenance state (drift counters).
const SECTION_RSMI_MAINT: u32 = 0x5104;

/// Appends the complete structure of `index` to a snapshot.
pub(super) fn encode(index: &Rsmi, w: &mut SnapshotWriter) {
    w.begin_section(SECTION_RSMI_META);
    w.put_usize(index.config.block_capacity);
    w.put_usize(index.config.partition_threshold);
    w.put_u8(index.config.curve.tag());
    w.put_usize(index.config.epochs);
    w.put_f64(index.config.learning_rate);
    w.put_u64(index.config.seed);
    w.put_bool(index.config.use_rank_space);
    w.put_bool(index.config.group_by_prediction);
    w.put_usize(index.config.cdf_pieces);
    w.put_usize(index.config.max_depth);
    w.put_opt_usize(index.root);
    w.put_usize(index.n_points);
    w.put_usize(index.height);
    w.put_usize(index.model_count);
    w.put_f64(index.build_seconds);
    w.end_section();

    index.store.write_snapshot(w);

    w.begin_section(SECTION_RSMI_NODES);
    w.put_usize(index.nodes.len());
    for node in &index.nodes {
        match node {
            Node::Internal(n) => {
                w.put_u8(0);
                n.model.encode(w);
                w.put_usize(n.children.len());
                for child in &n.children {
                    w.put_opt_usize(*child);
                }
                for mbr in &n.child_mbrs {
                    w.put_rect(mbr);
                }
                w.put_rect(&n.mbr);
            }
            Node::Leaf(leaf) => {
                w.put_u8(1);
                leaf.model.encode(w);
                w.put_usize(leaf.first_block);
                w.put_usize(leaf.n_blocks);
                w.put_rect(&leaf.mbr);
            }
        }
    }
    w.end_section();

    w.begin_section(SECTION_RSMI_CDF);
    index.cdf_x.encode(w);
    index.cdf_y.encode(w);
    w.end_section();

    w.begin_section(SECTION_RSMI_MAINT);
    w.put_usize(index.maint.len());
    for m in &index.maint {
        w.put_u64(m.ops_since_train);
        w.put_u64(m.widened_below);
        w.put_u64(m.widened_above);
    }
    w.end_section();
}

impl Rsmi {
    /// Reads an RSMI snapshot written by
    /// [`SpatialIndex::write_snapshot`](common::SpatialIndex::write_snapshot).
    /// The record is the same for both variants; an RSMIa snapshot's kind
    /// tag asks the loader for [`Rsmi::into_exact`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.begin_section(SECTION_RSMI_META)?;
        let config = RsmiConfig {
            block_capacity: r.get_usize()?,
            partition_threshold: r.get_usize()?,
            curve: {
                let tag = r.get_u8()?;
                CurveKind::from_tag(tag)
                    .ok_or_else(|| PersistError::Corrupt(format!("unknown curve tag {tag}")))?
            },
            epochs: r.get_usize()?,
            learning_rate: r.get_f64()?,
            seed: r.get_u64()?,
            use_rank_space: r.get_bool()?,
            group_by_prediction: r.get_bool()?,
            cdf_pieces: r.get_usize()?,
            max_depth: r.get_usize()?,
        };
        let root = r.get_opt_usize()?;
        let n_points = r.get_usize()?;
        let height = r.get_usize()?;
        let model_count = r.get_usize()?;
        let build_seconds = r.get_f64()?;
        r.end_section()?;

        let store = BlockStore::read_snapshot(r)?;

        r.begin_section(SECTION_RSMI_NODES)?;
        let n_nodes = r.get_len(1)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let node = match r.get_u8()? {
                0 => {
                    let model = ScaledRegressor::decode(r)?;
                    let len = r.get_len(1)?;
                    let mut children = Vec::with_capacity(len);
                    for _ in 0..len {
                        children.push(r.get_opt_index(n_nodes)?);
                    }
                    let mut child_mbrs = Vec::with_capacity(len);
                    for _ in 0..len {
                        child_mbrs.push(r.get_rect()?);
                    }
                    let mbr = r.get_rect()?;
                    Node::Internal(InternalNode {
                        model,
                        children,
                        child_mbrs,
                        mbr,
                    })
                }
                1 => {
                    let model = ScaledRegressor::decode(r)?;
                    let first_block = r.get_usize()?;
                    let n_blocks = r.get_usize()?;
                    if n_blocks > 0
                        && first_block
                            .checked_add(n_blocks)
                            .is_none_or(|end| end > store.len())
                    {
                        return Err(PersistError::Corrupt(
                            "RSMI leaf block range out of range".into(),
                        ));
                    }
                    let mbr = r.get_rect()?;
                    Node::Leaf(LeafNode {
                        model,
                        first_block,
                        n_blocks,
                        mbr,
                    })
                }
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown RSMI node kind byte {other}"
                    )))
                }
            };
            nodes.push(node);
        }
        let root = root.map(|i| persist::check_index(i, n_nodes)).transpose()?;
        r.end_section()?;

        r.begin_section(SECTION_RSMI_CDF)?;
        let cdf_x = PiecewiseCdf::decode(r)?;
        let cdf_y = PiecewiseCdf::decode(r)?;
        r.end_section()?;

        r.begin_section(SECTION_RSMI_MAINT)?;
        let len = r.get_len(24)?;
        if len != nodes.len() {
            return Err(PersistError::Corrupt(
                "RSMI maintenance table length mismatch".into(),
            ));
        }
        let mut maint = Vec::with_capacity(len);
        for _ in 0..len {
            let ops_since_train = r.get_u64()?;
            maint.push(LeafMaint {
                ops_since_train,
                ops_since_pack: ops_since_train,
                widened_below: r.get_u64()?,
                widened_above: r.get_u64()?,
            });
        }
        r.end_section()?;

        Ok(Self {
            config,
            exact: false,
            nodes,
            root,
            store,
            n_points,
            height,
            model_count,
            cdf_x,
            cdf_y,
            build_seconds,
            maint,
        })
    }
}
