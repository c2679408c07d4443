//! FlashWalker's per-graph preprocessing: subgraph placement in the
//! static flash region, the board's lookup tables, and each partition's
//! static scheduling and hot-subgraph data.

use fw_graph::partition::PartitionConfig;
use fw_graph::{PartitionedGraph, RangeTable, SubgraphMappingTable};
use fw_nand::address::Geometry;
use fw_nand::layout::GraphBlockPlacement;
use fw_nand::{GraphLayout, SsdConfig};

use super::state::SgId;
use crate::config::AccelConfig;
use crate::tables::DenseTable;

/// The inputs an [`FwLayout`] is a pure function of, checked when an
/// engine adopts the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BuiltFor {
    partition: PartitionConfig,
    subgraphs: u32,
    geometry: Geometry,
    range_size: u32,
    /// `(board K, channel K)` hot slots, `None` with HS off.
    hot_slots: Option<(u32, u32)>,
}

impl BuiltFor {
    fn of(pg: &PartitionedGraph, cfg: &AccelConfig, ssd_cfg: &SsdConfig) -> Self {
        let sgb = pg.config.subgraph_bytes;
        BuiltFor {
            partition: pg.config,
            subgraphs: pg.num_subgraphs(),
            geometry: ssd_cfg.geometry,
            range_size: cfg.range_size,
            hot_slots: cfg
                .opts
                .hot_subgraphs
                .then(|| (cfg.board_hot_slots(sgb), cfg.chan_hot_slots(sgb))),
        }
    }
}

/// One partition's static data: which of its PWB entries each chip can
/// load, and the hot subgraphs the board and channels hold while it is
/// current.
#[derive(Debug, Clone)]
pub(super) struct PartLayout {
    /// The partition's PWB entry indices grouped by the chip holding
    /// the subgraph, ascending within each chip; chip `c`'s group is
    /// `chip_entries[chip_starts[c]..chip_starts[c + 1]]`.
    chip_entries: Vec<u32>,
    chip_starts: Vec<u32>,
    /// Board-resident hot subgraphs (global top in-degree).
    pub(super) board_hot: Vec<SgId>,
    /// Per channel, its chips' top in-degree subgraphs.
    pub(super) chan_hot: Vec<Vec<SgId>>,
}

impl PartLayout {
    /// PWB entry indices of the partition's subgraphs on `chip`.
    pub(super) fn chip_entries(&self, chip: u32) -> &[u32] {
        let c = chip as usize;
        &self.chip_entries[self.chip_starts[c] as usize..self.chip_starts[c + 1] as usize]
    }
}

/// Everything FlashWalker derives from (graph, accelerator config, SSD
/// geometry) before a run: the paper's preprocessing, which lays the
/// partitioned graph out in flash once and then serves every walk batch
/// from it. Nothing in it changes during a run, so one layout built up
/// front serves any number of engine runs
/// ([`crate::FlashWalkerSim::from_layout`]).
#[derive(Debug, Clone)]
pub struct FwLayout {
    pub(super) placements: Vec<GraphBlockPlacement>,
    pub(super) table: SubgraphMappingTable,
    pub(super) ranges: RangeTable,
    pub(super) dense: DenseTable,
    /// Mapping-table entry window per partition.
    pub(super) part_windows: Vec<(usize, usize)>,
    /// Erase blocks per plane reserved for the graph region.
    pub(super) static_blocks: u32,
    pub(super) parts: Vec<PartLayout>,
    built_for: BuiltFor,
}

impl FwLayout {
    /// Place `pg`'s subgraphs round-robin over the chips of `ssd_cfg`'s
    /// geometry and build the mapping, range and dense tables and every
    /// partition's static data under `cfg`.
    pub fn build(pg: &PartitionedGraph, cfg: &AccelConfig, ssd_cfg: &SsdConfig) -> Self {
        // Lay the graph out in the static region, leaving the rest to the
        // FTL for walk spills.
        let geometry = ssd_cfg.geometry;
        let pages_per_sg = (pg.config.subgraph_bytes / geometry.page_bytes).max(1) as u32;
        let total_pages = pg.num_subgraphs() as u64 * pages_per_sg as u64;
        let per_plane_pages = total_pages.div_ceil(geometry.num_planes() as u64);
        let static_blocks = (per_plane_pages.div_ceil(geometry.pages_per_block as u64) as u32 + 1)
            .min(geometry.blocks_per_plane - 4);
        let mut layout = GraphLayout::new(geometry, static_blocks);
        let placements: Vec<GraphBlockPlacement> = (0..pg.num_subgraphs())
            .map(|_| layout.place_block(pages_per_sg))
            .collect();

        let table = SubgraphMappingTable::build(pg);
        let ranges = RangeTable::build(&table, cfg.range_size);
        let dense = DenseTable::build(pg);

        let mut part_windows = vec![(usize::MAX, 0usize); pg.num_partitions() as usize];
        for (i, e) in table.entries().iter().enumerate() {
            let p = pg.partition_of(e.sg_id) as usize;
            let w = &mut part_windows[p];
            w.0 = w.0.min(i);
            w.1 = w.1.max(i + 1);
        }
        for w in &mut part_windows {
            if w.0 == usize::MAX {
                *w = (0, 0);
            }
        }

        let built_for = BuiltFor::of(pg, cfg, ssd_cfg);
        let parts = (0..pg.num_partitions())
            .map(|p| Self::build_part(pg, &placements, geometry, built_for.hot_slots, p))
            .collect();
        FwLayout {
            placements,
            table,
            ranges,
            dense,
            part_windows,
            static_blocks,
            parts,
            built_for,
        }
    }

    fn build_part(
        pg: &PartitionedGraph,
        placements: &[GraphBlockPlacement],
        geometry: Geometry,
        hot_slots: Option<(u32, u32)>,
        p: u32,
    ) -> PartLayout {
        let range = pg.partition_range(p);
        let chip_of = |sg: SgId| placements[sg as usize].chip;
        // Group the PWB entries by chip with a counting sort; ascending
        // entry order within a chip keeps the scheduler's tie-breaks.
        let num_chips = geometry.num_chips() as usize;
        let mut chip_starts = vec![0u32; num_chips + 1];
        for sg in range.clone() {
            chip_starts[chip_of(sg) as usize + 1] += 1;
        }
        for c in 0..num_chips {
            chip_starts[c + 1] += chip_starts[c];
        }
        let mut fill = chip_starts.clone();
        let mut chip_entries = vec![0u32; range.len()];
        for (idx, sg) in range.clone().enumerate() {
            let slot = &mut fill[chip_of(sg) as usize];
            chip_entries[*slot as usize] = idx as u32;
            *slot += 1;
        }

        // Hot-subgraph selection: "K subgraphs whose in-degree are top K"
        // per channel, and the global top set on the board. Dense slices
        // are excluded (they need the dense table to route into).
        let (board_hot, chan_hot) = match hot_slots {
            Some((board_k, chan_k)) => {
                let mut by_indeg: Vec<SgId> = range
                    .filter(|&sg| !pg.subgraphs[sg as usize].is_dense())
                    .collect();
                by_indeg.sort_by_key(|&sg| std::cmp::Reverse(pg.subgraphs[sg as usize].in_degree));
                let board = by_indeg.iter().copied().take(board_k as usize).collect();
                let chan = (0..geometry.channels)
                    .map(|ch| {
                        by_indeg
                            .iter()
                            .copied()
                            .filter(|&sg| chip_of(sg) / geometry.chips_per_channel == ch)
                            .take(chan_k as usize)
                            .collect()
                    })
                    .collect();
                (board, chan)
            }
            None => (Vec::new(), vec![Vec::new(); geometry.channels as usize]),
        };
        PartLayout {
            chip_entries,
            chip_starts,
            board_hot,
            chan_hot,
        }
    }

    /// Panic unless this layout was built for exactly these inputs.
    pub(super) fn assert_built_for(
        &self,
        pg: &PartitionedGraph,
        cfg: &AccelConfig,
        ssd_cfg: &SsdConfig,
    ) {
        assert_eq!(
            self.built_for,
            BuiltFor::of(pg, cfg, ssd_cfg),
            "FwLayout was built for a different partitioning, SSD geometry, \
             range size or hot-slot config"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fw_graph::rmat::{generate_csr, RmatParams};
    use std::cmp::Reverse;

    /// Every partition's static data: each PWB entry grouped once under
    /// its chip in ascending order, and hot sets that are the top-K
    /// in-degree non-dense subgraphs (ties to the lower id) under the
    /// config's slot counts. 4 KB subgraphs make a partition larger than
    /// the board's K, so K actually cuts.
    #[test]
    fn partition_data_matches_its_definition() {
        let csr = generate_csr(RmatParams::graph500(), 20_000, 400_000, 3);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 4 << 10,
                id_bytes: 4,
                subgraphs_per_partition: 400,
            },
        );
        let cfg = AccelConfig::scaled();
        let ssd = SsdConfig::scaled();
        let geometry = ssd.geometry;
        let layout = FwLayout::build(&pg, &cfg, &ssd);
        let board_k = cfg.board_hot_slots(4 << 10) as usize;
        let chan_k = cfg.chan_hot_slots(4 << 10) as usize;
        assert!(pg.num_partitions() > 1);
        let chip_of = |sg: SgId| layout.placements[sg as usize].chip;
        let top = |mut sgs: Vec<SgId>, k: usize| {
            sgs.sort_by_key(|&sg| (Reverse(pg.subgraphs[sg as usize].in_degree), sg));
            sgs.truncate(k);
            sgs
        };
        let mut cut = false;
        for (p, part) in layout.parts.iter().enumerate() {
            let range = pg.partition_range(p as u32);
            let mut seen = vec![false; range.len()];
            for chip in 0..geometry.num_chips() {
                let entries = part.chip_entries(chip);
                assert!(entries.windows(2).all(|w| w[0] < w[1]));
                for &idx in entries {
                    assert_eq!(chip_of(range.start + idx), chip);
                    assert!(!std::mem::replace(&mut seen[idx as usize], true));
                }
            }
            assert!(seen.iter().all(|&s| s), "partition {p}: entry missing");

            let eligible: Vec<SgId> = range
                .filter(|&sg| !pg.subgraphs[sg as usize].is_dense())
                .collect();
            cut |= eligible.len() > board_k;
            assert_eq!(part.board_hot, top(eligible.clone(), board_k));
            for ch in 0..geometry.channels {
                let mine = eligible
                    .iter()
                    .copied()
                    .filter(|&sg| chip_of(sg) / geometry.chips_per_channel == ch)
                    .collect();
                assert_eq!(part.chan_hot[ch as usize], top(mine, chan_k));
            }
        }
        assert!(cut, "no partition exceeds the board's hot slots");

        let hs_off = AccelConfig {
            opts: crate::OptToggles::none(),
            ..cfg
        };
        let off = FwLayout::build(&pg, &hs_off, &ssd);
        assert!(off
            .parts
            .iter()
            .all(|p| p.board_hot.is_empty() && p.chan_hot.iter().all(Vec::is_empty)));
    }
}
