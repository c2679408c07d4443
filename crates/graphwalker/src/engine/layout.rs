//! GraphWalker's per-graph preprocessing: the graph cut into
//! GraphWalker-size blocks and those blocks' pages on the SSD.

use fw_graph::partition::PartitionConfig;
use fw_graph::{Csr, PartitionedGraph};
use fw_nand::address::Geometry;
use fw_nand::layout::GraphBlockPlacement;
use fw_nand::{GraphLayout, SsdConfig};

use crate::config::GwConfig;

/// The inputs a [`GwLayout`] is a pure function of, checked when an
/// engine adopts the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BuiltFor {
    vertices: u32,
    edges: u64,
    block_bytes: u64,
    id_bytes: u32,
    geometry: Geometry,
}

impl BuiltFor {
    fn of(csr: &Csr, id_bytes: u32, cfg: &GwConfig, ssd_cfg: &SsdConfig) -> Self {
        BuiltFor {
            vertices: csr.num_vertices(),
            edges: csr.num_edges(),
            block_bytes: cfg.block_bytes,
            id_bytes,
            geometry: ssd_cfg.geometry,
        }
    }
}

/// The blocked graph and its SSD placement for one (graph, block size,
/// id width, SSD geometry). Nothing in it changes during a run, so one
/// layout built up front serves any number of engine runs
/// ([`crate::GraphWalkerSim::from_layout`]), the way GraphWalker's
/// preprocessing writes the block files once.
#[derive(Debug, Clone)]
pub struct GwLayout {
    pub(super) blocks: PartitionedGraph,
    pub(super) placements: Vec<GraphBlockPlacement>,
    /// Erase blocks per plane reserved for the graph region.
    pub(super) static_blocks: u32,
    built_for: BuiltFor,
}

impl GwLayout {
    /// Partition `csr` into GraphWalker-size blocks and lay them out on
    /// an SSD of `ssd_cfg`'s geometry.
    pub fn build(csr: &Csr, id_bytes: u32, cfg: &GwConfig, ssd_cfg: &SsdConfig) -> Self {
        let blocks = PartitionedGraph::build(
            csr,
            PartitionConfig {
                subgraph_bytes: cfg.block_bytes,
                id_bytes,
                subgraphs_per_partition: u32::MAX,
            },
        );
        let geometry = ssd_cfg.geometry;
        let pages_per_block = (cfg.block_bytes / geometry.page_bytes).max(1) as u32;
        let total_pages = blocks.num_subgraphs() as u64 * pages_per_block as u64;
        let per_plane = total_pages.div_ceil(geometry.num_planes() as u64);
        let static_blocks = (per_plane.div_ceil(geometry.pages_per_block as u64) as u32 + 1)
            .min(geometry.blocks_per_plane - 4);
        let mut layout = GraphLayout::new(geometry, static_blocks);
        // GraphWalker block pages: sized by the block's actual bytes so a
        // small final block doesn't read a full-size extent. Unlike
        // FlashWalker's chip-local graph blocks, GraphWalker's blocks are
        // ordinary host files — the FTL stripes them page-by-page across
        // every chip, so a block load engages the whole device.
        let placements = blocks
            .subgraphs
            .iter()
            .map(|sg| {
                let bytes = sg.bytes(id_bytes).max(geometry.page_bytes);
                let pages = bytes.div_ceil(geometry.page_bytes) as u32;
                let mut placement = layout.place_block(0);
                for _ in 0..pages {
                    placement.pages.extend(layout.place_block(1).pages);
                }
                placement
            })
            .collect();
        GwLayout {
            blocks,
            placements,
            static_blocks,
            built_for: BuiltFor::of(csr, id_bytes, cfg, ssd_cfg),
        }
    }

    /// Number of GraphWalker blocks.
    pub fn num_blocks(&self) -> u32 {
        self.blocks.num_subgraphs()
    }

    /// Panic unless this layout was built for exactly these inputs.
    pub(super) fn assert_built_for(
        &self,
        csr: &Csr,
        id_bytes: u32,
        cfg: &GwConfig,
        ssd_cfg: &SsdConfig,
    ) {
        let want = BuiltFor::of(csr, id_bytes, cfg, ssd_cfg);
        assert_eq!(
            self.built_for, want,
            "GwLayout was built for a different graph, block size, id width or SSD geometry"
        );
    }
}
