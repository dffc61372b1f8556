//! Grid File baseline (Nievergelt et al.), as configured in §6.1 of the
//! paper: a regular `√(n/B) x √(n/B)` grid over the data space, one block's
//! worth of points per cell under a uniform distribution.  A cell table maps
//! every cell to the list of blocks storing its points.

use common::knn::KBest;
use common::{CopyVisit, QueryContext, SpatialIndex};
use geom::{Point, Rect};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use storage::{BlockId, BlockStore};

/// Section tag of the grid directory (the cell table).
const SECTION_GRID: u32 = 0x4701;

/// Grid File index ("Grid" in the paper's figures).
#[derive(Debug)]
pub struct GridFile {
    store: BlockStore,
    /// Blocks of each cell, row-major (`cell = row * side + col`).
    cells: Vec<Vec<BlockId>>,
    /// Number of columns (= rows) of the grid.
    side: usize,
    n_points: usize,
}

impl GridFile {
    /// Bulk-loads a Grid File with block capacity `block_capacity`.
    pub fn build(points: Vec<Point>, block_capacity: usize) -> Self {
        let n = points.len();
        // √(n / B) cells per dimension (at least 1).
        let side = (((n as f64 / block_capacity as f64).sqrt()).ceil() as usize).max(1);
        let mut per_cell: Vec<Vec<Point>> = vec![Vec::new(); side * side];
        for p in &points {
            per_cell[Self::cell_of(side, p)].push(*p);
        }
        let mut store = BlockStore::new(block_capacity);
        let mut cells = vec![Vec::new(); side * side];
        for (cell, pts) in per_cell.into_iter().enumerate() {
            if pts.is_empty() {
                continue;
            }
            let range = store.pack(&pts);
            cells[cell] = range.collect();
        }
        Self {
            store,
            cells,
            side,
            n_points: n,
        }
    }

    #[inline]
    fn cell_of(side: usize, p: &Point) -> usize {
        let col = ((p.x * side as f64) as usize).min(side - 1);
        let row = ((p.y * side as f64) as usize).min(side - 1);
        row * side + col
    }

    /// The extent of the points a cell can hold.  `cell_of` clamps points
    /// outside the unit square into the border cells, so a border cell
    /// reaches to `f64::MIN` / `f64::MAX` on its outer sides; inside the
    /// unit square every cell keeps its nominal extent.
    #[inline]
    fn cell_rect(&self, cell: usize) -> Rect {
        let col = cell % self.side;
        let row = cell / self.side;
        let w = 1.0 / self.side as f64;
        let lo = |i: usize| if i == 0 { f64::MIN } else { i as f64 * w };
        let hi = |i: usize| {
            if i + 1 == self.side {
                f64::MAX
            } else {
                (i + 1) as f64 * w
            }
        };
        Rect::new(lo(col), lo(row), hi(col), hi(row))
    }

    /// Cells whose extent intersects the window.
    fn cells_in_window(&self, window: &Rect) -> Vec<usize> {
        let side = self.side;
        let clamp = |v: f64| ((v * side as f64) as isize).clamp(0, side as isize - 1) as usize;
        let (c0, c1) = (clamp(window.min_x), clamp(window.max_x));
        let (r0, r1) = (clamp(window.min_y), clamp(window.max_y));
        let mut out = Vec::with_capacity((c1 - c0 + 1) * (r1 - r0 + 1));
        for row in r0..=r1 {
            for col in c0..=c1 {
                out.push(row * side + col);
            }
        }
        out
    }

    /// Grid resolution (cells per dimension).
    pub fn grid_side(&self) -> usize {
        self.side
    }

    /// Reads a block as part of a query, charging the access and its
    /// candidates to the context.
    #[inline]
    fn read_block(&self, id: BlockId, cx: &mut QueryContext) -> &storage::Block {
        let block = self.store.block(id);
        cx.count_block_scan(block.len());
        block
    }

    /// Reads a Grid File snapshot written by
    /// [`SpatialIndex::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let store = BlockStore::read_snapshot(r)?;
        r.begin_section(SECTION_GRID)?;
        let side = r.get_usize()?;
        let n_points = r.get_usize()?;
        let n_cells = r.get_len(8)?;
        if side == 0 || side.checked_mul(side) != Some(n_cells) {
            return Err(PersistError::Corrupt(format!(
                "grid of side {side} with {n_cells} cells"
            )));
        }
        let mut cells = Vec::with_capacity(n_cells);
        for _ in 0..n_cells {
            cells.push(r.get_indices(store.len())?);
        }
        r.end_section()?;
        Ok(Self {
            store,
            cells,
            side,
            n_points,
        })
    }
}

impl SpatialIndex for GridFile {
    fn name(&self) -> &'static str {
        "Grid"
    }

    fn len(&self) -> usize {
        self.n_points
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        let cell = Self::cell_of(self.side, q);
        for &b in &self.cells[cell] {
            let block = self.read_block(b, cx);
            if block.find_at(q.x, q.y, &mut *visit).is_break() {
                return;
            }
        }
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        for cell in self.cells_in_window(window) {
            for &b in &self.cells[cell] {
                self.read_block(b, cx)
                    .for_each_in_rect(window, |p| visit(&p));
            }
        }
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        let mut best = KBest::new(k.min(self.n_points));
        let qcell = Self::cell_of(self.side, q);
        let (qcol, qrow) = (qcell % self.side, qcell / self.side);
        let cell_width = 1.0 / self.side as f64;

        // Expand ring by ring around the query cell; stop when the closest
        // possible point in the next unexplored ring cannot improve the k-th
        // distance (infinite until k are held).
        let max_ring = self.side; // enough to cover the whole grid
        for ring in 0..=max_ring {
            // Minimum distance to any cell in this ring.
            let ring_dist = (ring.saturating_sub(1)) as f64 * cell_width;
            if ring_dist * ring_dist > best.bound() {
                break;
            }
            let mut visit_cell = |col: isize, row: isize, cx: &mut QueryContext| {
                if col < 0 || row < 0 || col >= self.side as isize || row >= self.side as isize {
                    return;
                }
                let cell = row as usize * self.side + col as usize;
                if self.cell_rect(cell).min_dist_sq(q) > best.bound() {
                    return;
                }
                for &b in &self.cells[cell] {
                    self.read_block(b, cx)
                        .for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
                }
            };
            if ring == 0 {
                visit_cell(qcol as isize, qrow as isize, cx);
                continue;
            }
            let r = ring as isize;
            let (qc, qr) = (qcol as isize, qrow as isize);
            for d in -r..=r {
                visit_cell(qc + d, qr - r, cx);
                visit_cell(qc + d, qr + r, cx);
                if d > -r && d < r {
                    visit_cell(qc - r, qr + d, cx);
                    visit_cell(qc + r, qr + d, cx);
                }
            }
        }
        best.iter().for_each(visit);
    }

    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        self.store.for_each_point(visit)
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        // Cell-level filter cascade: each occupied cell discards every probe
        // farther than the radius from its extent, then its blocks are read
        // once and paired against the survivors — instead of one bounding-box
        // window probe per point of the other index.
        if !radius.is_finite() || radius < 0.0 || probes.is_empty() {
            return;
        }
        let r_sq = radius * radius;
        let mut kept: Vec<Point> = Vec::new();
        for (cell, blocks) in self.cells.iter().enumerate() {
            if blocks.is_empty() {
                continue;
            }
            let rect = self.cell_rect(cell);
            storage::kernels::probes_within(probes, &rect, r_sq, &mut kept);
            if kept.is_empty() {
                continue;
            }
            for &b in blocks {
                self.read_block(b, cx)
                    .for_each_pair_within(&kept, r_sq, &mut *visit);
            }
        }
    }

    fn insert(&mut self, p: Point) {
        let cell = Self::cell_of(self.side, &p);
        // "Grid adds a new point p to the last block in the cell enclosing p"
        // (§6.2.5); allocate a new block when the last one is full.
        let target = match self.cells[cell].last() {
            Some(&b) if !self.store.block(b).is_full() => b,
            _ => {
                let b = self.store.allocate();
                self.cells[cell].push(b);
                b
            }
        };
        self.store.block_mut(target).push(p);
        self.n_points += 1;
    }

    fn delete(&mut self, p: &Point) -> bool {
        let cell = Self::cell_of(self.side, p);
        let mut removed = 0;
        for &b in &self.cells[cell] {
            removed += self.store.block_mut(b).remove_at(p.x, p.y, p.id);
        }
        self.n_points -= removed;
        removed > 0
    }

    fn size_bytes(&self) -> usize {
        let cell_table: usize = self
            .cells
            .iter()
            .map(|c| c.len() * std::mem::size_of::<BlockId>() + std::mem::size_of::<Vec<BlockId>>())
            .sum();
        self.store.size_bytes() + cell_table
    }

    fn height(&self) -> usize {
        1
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        self.store.write_snapshot(w);
        w.begin_section(SECTION_GRID);
        w.put_usize(self.side);
        w.put_usize(self.n_points);
        w.put_usize(self.cells.len());
        for cell in &self.cells {
            w.put_usize(cell.len());
            for &b in cell {
                w.put_usize(b);
            }
        }
        w.end_section();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::brute_force;
    use datagen::{generate, Distribution};

    fn cx() -> QueryContext {
        QueryContext::new()
    }

    fn build_small() -> (Vec<Point>, GridFile) {
        let pts = generate(Distribution::Uniform, 1500, 7);
        let grid = GridFile::build(pts.clone(), 20);
        (pts, grid)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, grid) = build_small();
        for p in &pts {
            assert_eq!(grid.point_query(p, &mut cx()).unwrap().id, p.id);
        }
        assert!(grid
            .point_query(&Point::new(0.123456, 0.654321), &mut cx())
            .is_none());
    }

    #[test]
    fn window_queries_are_exact() {
        let (pts, grid) = build_small();
        for w in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.91, 0.91, 0.99, 0.99),
        ] {
            let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut got: Vec<u64> = grid
                .window_query(&w, &mut cx())
                .iter()
                .map(|p| p.id)
                .collect();
            truth.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, truth);
        }
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let (pts, grid) = build_small();
        for q in [
            Point::new(0.5, 0.5),
            Point::new(0.02, 0.98),
            Point::new(0.77, 0.11),
        ] {
            for k in [1, 7, 30] {
                let truth = brute_force::knn_query(&pts, &q, k);
                let got = grid.knn_query(&q, k, &mut cx());
                assert_eq!(got.len(), k);
                for (t, g) in truth.iter().zip(&got) {
                    assert!(
                        (t.dist(&q) - g.dist(&q)).abs() < 1e-12,
                        "k={k} truth {} got {}",
                        t.dist(&q),
                        g.dist(&q)
                    );
                }
            }
        }
    }

    #[test]
    fn skewed_data_produces_multi_block_cells() {
        let pts = generate(Distribution::skewed_default(), 3000, 3);
        let grid = GridFile::build(pts.clone(), 20);
        // Dense cells near y = 0 need several blocks.
        let max_blocks = grid.cells.iter().map(Vec::len).max().unwrap();
        assert!(max_blocks > 1);
        // Queries still exact.
        let w = Rect::new(0.0, 0.0, 0.3, 0.05);
        assert_eq!(
            grid.window_query(&w, &mut cx()).len(),
            brute_force::window_query(&pts, &w).len()
        );
    }

    #[test]
    fn insert_and_delete_round_trip() {
        let (_, mut grid) = build_small();
        let p = Point::with_id(0.333, 0.444, 900_000);
        grid.insert(p);
        assert_eq!(grid.len(), 1501);
        assert_eq!(grid.point_query(&p, &mut cx()).unwrap().id, p.id);
        assert!(grid.delete(&p));
        assert!(grid.point_query(&p, &mut cx()).is_none());
        assert_eq!(grid.len(), 1500);
        assert!(!grid.delete(&p));
    }

    #[test]
    fn block_accesses_are_counted_per_query() {
        let (pts, grid) = build_small();
        let mut c = cx();
        let _ = grid.point_query(&pts[0], &mut c);
        let per_point = c.take_stats();
        assert!(per_point.blocks_touched >= 1);
        assert!(per_point.candidates_scanned >= 1);
        let _ = grid.window_query(&Rect::new(0.0, 0.0, 0.5, 0.5), &mut c);
        assert!(c.stats.blocks_touched > per_point.blocks_touched);
    }

    #[test]
    fn empty_grid_handles_queries() {
        let grid = GridFile::build(vec![], 20);
        assert!(grid.is_empty());
        assert!(grid.point_query(&Point::new(0.5, 0.5), &mut cx()).is_none());
        assert!(grid.window_query(&Rect::unit(), &mut cx()).is_empty());
        assert!(grid
            .knn_query(&Point::new(0.5, 0.5), 3, &mut cx())
            .is_empty());
    }

    #[test]
    fn grid_side_matches_configuration_rule() {
        let pts = generate(Distribution::Uniform, 10_000, 1);
        let grid = GridFile::build(pts, 100);
        assert_eq!(grid.grid_side(), 10); // sqrt(10000 / 100)
        assert_eq!(grid.height(), 1);
        assert_eq!(grid.name(), "Grid");
    }
}
