//! Exact-parity round core: reproduces the legacy
//! [`fss_online::run_policy`] loop decision-for-decision, so engine-driven
//! runs are differentially testable (round-for-round identical schedules)
//! while still cutting the per-round cost.
//!
//! Three ingredients make the parity claim hold at a low per-round cost:
//!
//! 1. **Queue discipline mirror.** The waiting vector is maintained with
//!    the same push order (sorted by `(release, id)` via the
//!    [`crate::FlowSource`] ordering contract) and the same
//!    descending-index `swap_remove` after each round, so at every round
//!    the engine's waiting vector is *identical as a sequence* to the
//!    legacy runner's. Policies that read `QueueState` therefore see the
//!    exact same input and return the exact same selection.
//!
//! 2. **Dedup-compressed Hopcroft–Karp for MaxCard.** The legacy MaxCard
//!    runs HK over the full waiting multigraph (one edge per waiting
//!    flow). HK's BFS/DFS both ignore a parallel edge whose `(port, port)`
//!    pair was already reachable/tried — a failed DFS attempt mutates
//!    nothing, so a later parallel copy fails identically, and the first
//!    occurrence is always the one that succeeds. Running the *same
//!    traversal* over the first-occurrence-deduped adjacency (at most
//!    `m_in * m_out` edges instead of one per queued flow) therefore
//!    yields the same matched pairs *and* the same representative edge
//!    ids. At `M = 4m` the queue holds thousands of parallel edges per
//!    cell; this is the asymptotic win on the hot path.
//!
//! 3. **Maintained adjacency.** The deduped adjacency is kept up to date
//!    as flows arrive and leave instead of being rebuilt by a rescan of
//!    the whole waiting vector every round. Each cell keeps its waiting
//!    indices in an ascending list (one XOR link of 4 bytes per waiting
//!    flow, plus a head and tail per cell). A push appends the largest
//!    index; each descending `swap_remove` unlinks the selected index and
//!    relinks the last flow under its new, smaller index. Each input row
//!    lists its non-empty cells ordered by their smallest index — exactly
//!    the first-occurrence order a rescan produces — so the DFS walks the
//!    edges in the legacy order and returns the same edge ids. Beside the
//!    rows, a per-row support bitset (`⌈m_out / 64⌉` words) lets the BFS
//!    build each layer word-parallel. Only the DFS needs the ordered
//!    rows: the BFS distance labels are shortest alternating-path
//!    lengths and the `found` flag says whether any free output is
//!    reachable, and neither depends on the order edges are scanned in.

use fss_online::{OnlinePolicy, QueueState, WaitingFlow};

const NIL: u32 = u32::MAX;
const INF: u32 = u32::MAX;

/// How a round's matching is chosen in exact mode.
pub enum Selector<'p> {
    /// Legacy-identical MaxCard via dedup-compressed Hopcroft–Karp.
    MaxCard,
    /// Any [`OnlinePolicy`] — invoked on the mirrored waiting state, so
    /// its decisions (and thus the schedule) match the legacy loop's.
    Policy(&'p mut dyn OnlinePolicy),
}

impl Selector<'_> {
    /// Display name (mirrors the policy names used in panics/reports).
    pub fn name(&self) -> &str {
        match self {
            Selector::MaxCard => "MaxCard",
            Selector::Policy(p) => p.name(),
        }
    }
}

/// Mirrored waiting state plus reusable matching scratch.
pub struct ExactCore {
    m_in: usize,
    m_out: usize,
    /// Legacy-ordered waiting vector (the parity-critical structure).
    /// Private: every change must go through the methods that keep the
    /// cell lists and the adjacency in step with it.
    waiting: Vec<WaitingFlow>,
    /// This round's selection (sorted waiting indices).
    pub(crate) selection: Vec<usize>,
    // --- Maintained support graph ---
    /// `link[k]`: the previous XOR the next waiting index in flow `k`'s
    /// cell list (`NIL` standing in for a missing neighbour). Grows and
    /// shrinks with `waiting`.
    link: Vec<u32>,
    /// Per cell (`src * m_out + dst`): smallest and largest waiting
    /// index, `NIL` when the cell is empty.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// First-occurrence deduped adjacency: per input port, `(dst, edge)`
    /// of every non-empty cell, where `edge` is the cell's smallest
    /// waiting index; ascending by `edge`.
    adj: Vec<Vec<(u32, u32)>>,
    /// Per input port, `words` u64s: bit `dst` is set iff the cell is
    /// non-empty.
    support: Vec<u64>,
    words: usize,
    // --- MaxCard scratch (reused across rounds; no per-round allocs) ---
    match_l: Vec<u32>,
    match_r: Vec<u32>,
    match_edge: Vec<u32>,
    dist: Vec<u32>,
    frontier: Vec<u32>,
    reach: Vec<u64>,
    seen: Vec<u64>,
    // --- validation scratch for the Policy path ---
    used_in: Vec<bool>,
    used_out: Vec<bool>,
}

impl ExactCore {
    /// Empty state for an `m_in x m_out` unit-capacity switch.
    pub fn new(m_in: usize, m_out: usize) -> ExactCore {
        let words = m_out.div_ceil(64);
        ExactCore {
            m_in,
            m_out,
            waiting: Vec::new(),
            selection: Vec::new(),
            link: Vec::new(),
            head: vec![NIL; m_in * m_out],
            tail: vec![NIL; m_in * m_out],
            adj: vec![Vec::new(); m_in],
            support: vec![0; m_in * words],
            words,
            match_l: vec![NIL; m_in],
            match_r: vec![NIL; m_out],
            match_edge: vec![NIL; m_in],
            dist: vec![INF; m_in],
            frontier: Vec::new(),
            reach: vec![0; words],
            seen: vec![0; words],
            used_in: vec![false; m_in],
            used_out: vec![false; m_out],
        }
    }

    /// The legacy-ordered waiting vector.
    pub fn waiting(&self) -> &[WaitingFlow] {
        &self.waiting
    }

    /// Append a released flow (callers feed arrivals in `(release, id)`
    /// order, matching the legacy ingest).
    pub fn push_waiting(&mut self, id: u32, src: u32, dst: u32, release: u64) {
        let k = self.waiting.len() as u32;
        assert!(k < NIL, "exact mode addresses waiting flows as u32");
        self.waiting.push(WaitingFlow {
            id: fss_core::FlowId(id),
            src,
            dst,
            release,
        });
        self.link.push(0);
        let cell = self.cell(k);
        let old = self.head[cell];
        self.list_insert(cell, k);
        self.sync_row(cell, old);
    }

    /// Choose this round's matching; returns the sorted, deduped,
    /// validated selection (indices into `waiting`).
    pub fn select(&mut self, round: u64, selector: &mut Selector<'_>) -> &[usize] {
        match selector {
            Selector::MaxCard => self.select_maxcard(),
            Selector::Policy(p) => self.select_policy(round, *p),
        }
        &self.selection
    }

    /// Dispatch bookkeeping: remove the selection exactly like the legacy
    /// loop (descending-index `swap_remove`), preserving vector parity,
    /// and replay each removal on the cell lists.
    pub fn remove_selection(&mut self) {
        for i in (0..self.selection.len()).rev() {
            let k = self.selection[i] as u32;
            let last = self.link.len() as u32 - 1;
            let cell = self.cell(k);
            let old = self.head[cell];
            self.list_remove(cell, k);
            self.sync_row(cell, old);
            if k != last {
                // `swap_remove` moves the last flow into slot `k`.
                let cell = self.cell(last);
                let old = self.head[cell];
                self.list_remove(cell, last);
                self.list_insert(cell, k);
                self.sync_row(cell, old);
            }
            self.waiting.swap_remove(k as usize);
            self.link.pop();
        }
    }

    fn cell(&self, k: u32) -> usize {
        let w = &self.waiting[k as usize];
        w.src as usize * self.m_out + w.dst as usize
    }

    /// The neighbours of `k`'s place in `cell`'s ascending list: the
    /// largest index below `k` and the smallest above it (`NIL` where
    /// none). Works whether or not `k` is in the list. Walks in from both
    /// ends at once, so the ends — pushes, popped heads, the moved last
    /// flow — cost `O(1)`.
    fn locate(&self, cell: usize, k: u32) -> (u32, u32) {
        let (mut fp, mut fc) = (NIL, self.head[cell]);
        let (mut bn, mut bc) = (NIL, self.tail[cell]);
        loop {
            // Invariant: fp < k and bn > k (or NIL).
            if fc == NIL || fc >= k {
                let next = if fc == k {
                    self.link[k as usize] ^ fp
                } else {
                    fc
                };
                return (fp, next);
            }
            (fp, fc) = (fc, self.link[fc as usize] ^ fp);
            if bc <= k {
                let prev = if bc == k {
                    self.link[k as usize] ^ bn
                } else {
                    bc
                };
                return (prev, bn);
            }
            (bn, bc) = (bc, self.link[bc as usize] ^ bn);
        }
    }

    /// Insert waiting index `k` into `cell`'s list.
    fn list_insert(&mut self, cell: usize, k: u32) {
        let (p, n) = self.locate(cell, k);
        self.link[k as usize] = p ^ n;
        self.relink(p, n, k);
        if p == NIL {
            self.head[cell] = k;
        }
        if n == NIL {
            self.tail[cell] = k;
        }
    }

    /// Remove waiting index `k` from `cell`'s list.
    fn list_remove(&mut self, cell: usize, k: u32) {
        let (p, n) = self.locate(cell, k);
        self.relink(p, n, k);
        if p == NIL {
            self.head[cell] = n;
        }
        if n == NIL {
            self.tail[cell] = p;
        }
    }

    /// Splice `k` in between, or out from between, its neighbours `p`
    /// and `n`: the same XOR toggles either way.
    fn relink(&mut self, p: u32, n: u32, k: u32) {
        if p != NIL {
            self.link[p as usize] ^= n ^ k;
        }
        if n != NIL {
            self.link[n as usize] ^= p ^ k;
        }
    }

    /// `cell`'s list changed and its head was `old` before: move the
    /// cell's adjacency entry so its row stays ascending by head, and
    /// keep the support bit in step (`NIL` head = empty cell).
    fn sync_row(&mut self, cell: usize, old: u32) {
        let new = self.head[cell];
        if new == old {
            return;
        }
        let (u, v) = (cell / self.m_out, cell % self.m_out);
        let mask = 1u64 << (v % 64);
        let word = &mut self.support[u * self.words + v / 64];
        let row = &mut self.adj[u];
        let entry = (v as u32, new);
        match (old, new) {
            (NIL, _) => {
                *word |= mask;
                let to = row.partition_point(|&(_, e)| e < new);
                row.insert(to, entry);
            }
            (_, NIL) => {
                *word &= !mask;
                row.remove(find(row, old));
            }
            _ => {
                // Slide the entry from its old place to its new one.
                let (from, to) = (find(row, old), row.partition_point(|&(_, e)| e < new));
                if to > from {
                    row[from..to].rotate_left(1);
                    row[to - 1] = entry;
                } else {
                    row[to..=from].rotate_right(1);
                    row[to] = entry;
                }
            }
        }
    }

    fn select_policy(&mut self, round: u64, policy: &mut dyn OnlinePolicy) {
        let state = QueueState {
            round,
            waiting: &self.waiting,
            m_in: self.m_in,
            m_out: self.m_out,
        };
        // Reuse the persistent selection buffer: policies write into it
        // via `choose_into`, so the hot loop stays allocation-free.
        let mut sel = std::mem::take(&mut self.selection);
        policy.choose_into(&state, &mut sel);
        sel.sort_unstable();
        sel.dedup();
        // Validate exactly like the legacy runner: panics on a
        // non-matching, because policies are trusted components.
        for p in self.used_in.iter_mut() {
            *p = false;
        }
        for q in self.used_out.iter_mut() {
            *q = false;
        }
        for &k in &sel {
            let w = &self.waiting[k];
            assert!(
                !self.used_in[w.src as usize] && !self.used_out[w.dst as usize],
                "policy {} returned a non-matching at round {round}",
                policy.name()
            );
            self.used_in[w.src as usize] = true;
            self.used_out[w.dst as usize] = true;
        }
        self.selection = sel;
    }

    /// Hopcroft–Karp over the maintained deduped adjacency, mirroring
    /// `fss_matching::max_cardinality_matching`'s phases and DFS order.
    fn select_maxcard(&mut self) {
        self.match_l.fill(NIL);
        self.match_r.fill(NIL);
        while self.bfs_layers() {
            self.augment_phase();
        }
        self.selection.clear();
        for u in 0..self.m_in {
            if self.match_l[u] != NIL {
                self.selection.push(self.match_edge[u] as usize);
            }
        }
        // The legacy runner sorts + dedups the policy's return value.
        self.selection.sort_unstable();
    }

    /// HK's BFS, one layer at a time over the support bitsets: sets
    /// `dist` to each input's alternating-path distance from a free
    /// input (`INF` if unreachable) and returns whether a free output is
    /// reachable. Same labels and flag as the reference's queue BFS.
    fn bfs_layers(&mut self) -> bool {
        let w = self.words;
        self.frontier.clear();
        for u in 0..self.m_in {
            if self.match_l[u] == NIL {
                self.dist[u] = 0;
                self.frontier.push(u as u32);
            } else {
                self.dist[u] = INF;
            }
        }
        self.seen.fill(0);
        let mut found = false;
        let mut layer = 0;
        while !self.frontier.is_empty() {
            layer += 1;
            self.reach.fill(0);
            for &u in &self.frontier {
                let row = &self.support[u as usize * w..][..w];
                for (r, s) in self.reach.iter_mut().zip(row) {
                    *r |= s;
                }
            }
            self.frontier.clear();
            for j in 0..w {
                let mut fresh = self.reach[j] & !self.seen[j];
                self.seen[j] |= fresh;
                while fresh != 0 {
                    let v = j * 64 + fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    match self.match_r[v] {
                        NIL => found = true,
                        x => {
                            // Each matched output has one partner, so a
                            // first visit of `v` is a first visit of `x`.
                            self.dist[x as usize] = layer;
                            self.frontier.push(x);
                        }
                    }
                }
            }
        }
        found
    }

    /// HK's DFS phase: augment from every free input along shortest
    /// alternating paths, walking each row in first-occurrence order.
    fn augment_phase(&mut self) {
        for u in 0..self.m_in as u32 {
            if self.match_l[u as usize] == NIL {
                hk_dfs(
                    u,
                    &self.adj,
                    &mut self.match_l,
                    &mut self.match_r,
                    &mut self.match_edge,
                    &mut self.dist,
                );
            }
        }
    }
}

/// Position of the entry whose edge is `head` in an ascending row.
fn find(row: &[(u32, u32)], head: u32) -> usize {
    row.binary_search_by_key(&head, |&(_, e)| e)
        .expect("a non-empty cell has an adjacency entry")
}

/// Layered-DFS augmentation, identical in traversal order to the
/// reference `fss_matching::hopcroft_karp::dfs`.
fn hk_dfs(
    u: u32,
    adj: &[Vec<(u32, u32)>],
    match_l: &mut [u32],
    match_r: &mut [u32],
    match_edge: &mut [u32],
    dist: &mut [u32],
) -> bool {
    for idx in 0..adj[u as usize].len() {
        let (v, e) = adj[u as usize][idx];
        let w = match_r[v as usize];
        let ok = w == NIL
            || (dist[w as usize] == dist[u as usize] + 1
                && hk_dfs(w, adj, match_l, match_r, match_edge, dist));
        if ok {
            match_l[u as usize] = v;
            match_r[v as usize] = u;
            match_edge[u as usize] = e;
            return true;
        }
    }
    dist[u as usize] = INF;
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_matching::{max_cardinality_matching, BipartiteGraph};
    use fss_online::FifoGreedy;
    use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
    use std::collections::VecDeque;

    /// The parity claim, tested directly: dedup-HK over the waiting
    /// vector selects the same edge ids as reference HK over the full
    /// multigraph.
    #[test]
    fn dedup_hk_matches_reference_on_random_multigraphs() {
        let mut rng = SmallRng::seed_from_u64(1234);
        for _ in 0..500 {
            let m_in = rng.gen_range(1..7usize);
            let m_out = rng.gen_range(1..7usize);
            let edges = rng.gen_range(0..40usize);
            let mut core = ExactCore::new(m_in, m_out);
            let mut g = BipartiteGraph::new(m_in, m_out);
            for k in 0..edges {
                let (src, dst) = (
                    rng.gen_range(0..m_in as u32),
                    rng.gen_range(0..m_out as u32),
                );
                core.push_waiting(k as u32, src, dst, 0);
                g.add_edge(src, dst);
            }
            let mut sel = Selector::MaxCard;
            let got: Vec<usize> = core.select(0, &mut sel).to_vec();
            let mut want = max_cardinality_matching(&g);
            want.sort_unstable();
            assert_eq!(got, want, "m_in={m_in} m_out={m_out} edges={edges}");
        }
    }

    #[test]
    fn multiround_parity_with_swap_remove_discipline() {
        // Drive several rounds incl. removals; re-check parity each round.
        let mut rng = SmallRng::seed_from_u64(99);
        let (m_in, m_out) = (4usize, 4usize);
        let mut core = ExactCore::new(m_in, m_out);
        let mut mirror: Vec<(u32, u32)> = Vec::new(); // (src, dst)
        let mut next_id = 0u32;
        for round in 0u64..60 {
            for _ in 0..rng.gen_range(0..4u32) {
                let (s, d) = (rng.gen_range(0..4u32), rng.gen_range(0..4u32));
                core.push_waiting(next_id, s, d, round);
                mirror.push((s, d));
                next_id += 1;
            }
            if core.waiting.is_empty() {
                continue;
            }
            let mut g = BipartiteGraph::new(m_in, m_out);
            for &(s, d) in &mirror {
                g.add_edge(s, d);
            }
            let mut sel = Selector::MaxCard;
            let got: Vec<usize> = core.select(round, &mut sel).to_vec();
            let mut want = max_cardinality_matching(&g);
            want.sort_unstable();
            assert_eq!(got, want, "round {round}");
            core.remove_selection();
            for &k in got.iter().rev() {
                mirror.swap_remove(k);
            }
            assert_eq!(core.waiting.len(), mirror.len());
        }
    }

    #[test]
    #[should_panic(expected = "non-matching")]
    fn policy_selection_is_validated() {
        struct Bad;
        impl OnlinePolicy for Bad {
            fn name(&self) -> &'static str {
                "Bad"
            }
            fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
                (0..state.waiting.len()).collect()
            }
        }
        let mut core = ExactCore::new(2, 2);
        core.push_waiting(0, 0, 0, 0);
        core.push_waiting(1, 0, 0, 0);
        let mut bad = Bad;
        let mut sel = Selector::Policy(&mut bad);
        core.select(0, &mut sel);
    }
    /// The full-rescan builder the maintained adjacency replaced: rows in
    /// first-occurrence order and support bitsets, rebuilt from the
    /// waiting vector.
    fn rescan_adjacency(core: &ExactCore) -> (Vec<Vec<(u32, u32)>>, Vec<u64>) {
        let mut adj = vec![Vec::new(); core.m_in];
        let mut support = vec![0u64; core.m_in * core.words];
        for (k, w) in core.waiting.iter().enumerate() {
            let (u, v) = (w.src as usize, w.dst as usize);
            let word = &mut support[u * core.words + v / 64];
            if *word & (1 << (v % 64)) == 0 {
                *word |= 1 << (v % 64);
                adj[u].push((w.dst, k as u32));
            }
        }
        (adj, support)
    }

    /// Every cell's waiting indices, ascending, by a rescan.
    fn rescan_cells(core: &ExactCore) -> Vec<Vec<u32>> {
        let mut cells = vec![Vec::new(); core.m_in * core.m_out];
        for k in 0..core.waiting.len() as u32 {
            cells[core.cell(k)].push(k);
        }
        cells
    }

    /// Every cell's maintained list, walked from its head; also checks
    /// the walk ends at the recorded tail.
    fn walk_cells(core: &ExactCore) -> Vec<Vec<u32>> {
        (0..core.m_in * core.m_out)
            .map(|cell| {
                let mut list = Vec::new();
                let (mut prev, mut cur) = (NIL, core.head[cell]);
                while cur != NIL {
                    list.push(cur);
                    (prev, cur) = (cur, core.link[cur as usize] ^ prev);
                }
                assert_eq!(prev, core.tail[cell], "cell {cell}: tail");
                list
            })
            .collect()
    }

    /// The reference's queue BFS over the maintained rows.
    fn queue_bfs(core: &ExactCore) -> (Vec<u32>, bool) {
        let mut dist: Vec<u32> = core
            .match_l
            .iter()
            .map(|&v| if v == NIL { 0 } else { INF })
            .collect();
        let mut queue: VecDeque<usize> = (0..core.m_in).filter(|&u| dist[u] == 0).collect();
        let mut found = false;
        while let Some(u) = queue.pop_front() {
            for &(v, _) in &core.adj[u] {
                let w = core.match_r[v as usize];
                if w == NIL {
                    found = true;
                } else if dist[w as usize] == INF {
                    dist[w as usize] = dist[u] + 1;
                    queue.push_back(w as usize);
                }
            }
        }
        (dist, found)
    }

    /// Maintained structures equal the rescan, and every HK phase's
    /// bitset BFS labels equal the queue BFS's. Runs HK from scratch on
    /// the scratch buffers only (the selection is untouched).
    fn check_against_rescan(core: &mut ExactCore) {
        let (adj, support) = rescan_adjacency(core);
        assert_eq!(core.adj, adj, "rows");
        assert_eq!(core.support, support, "support bitsets");
        assert_eq!(walk_cells(core), rescan_cells(core), "cell lists");
        assert_eq!(core.link.len(), core.waiting.len());
        core.match_l.fill(NIL);
        core.match_r.fill(NIL);
        loop {
            let (dist, found) = queue_bfs(core);
            assert_eq!(core.bfs_layers(), found, "found flag");
            assert_eq!(core.dist, dist, "BFS distance labels");
            if !found {
                break;
            }
            core.augment_phase();
        }
    }

    /// Picks a random maximal matching over arbitrary waiting flows, so
    /// removals hit the middle and the tail of cell lists, not just heads.
    struct RandomPick {
        rng: SmallRng,
        order: Vec<usize>,
    }

    impl OnlinePolicy for RandomPick {
        fn name(&self) -> &'static str {
            "RandomPick"
        }
        fn choose(&mut self, state: &QueueState<'_>) -> Vec<usize> {
            self.order.clear();
            self.order.extend(0..state.waiting.len());
            self.order.shuffle(&mut self.rng);
            let (mut used_in, mut used_out) = (vec![false; state.m_in], vec![false; state.m_out]);
            let mut out = Vec::new();
            for &k in &self.order {
                let w = &state.waiting[k];
                if !used_in[w.src as usize] && !used_out[w.dst as usize] {
                    used_in[w.src as usize] = true;
                    used_out[w.dst as usize] = true;
                    out.push(k);
                }
            }
            out
        }
    }

    #[test]
    fn maintained_adjacency_matches_rescan_across_rounds() {
        let mut rng = SmallRng::seed_from_u64(0xad1);
        for (m_in, m_out) in [(3usize, 2usize), (5, 64), (4, 65), (6, 130)] {
            // Few hot columns (word edges included) so cells hold
            // parallel flows, empty out, and refill.
            let cols: Vec<u32> = [0, 1, 63, 64, m_out - 1]
                .into_iter()
                .filter(|&c| c < m_out)
                .map(|c| c as u32)
                .collect();
            for path in 0..3 {
                let mut core = ExactCore::new(m_in, m_out);
                let mut fifo = FifoGreedy::default();
                let mut pick = RandomPick {
                    rng: SmallRng::seed_from_u64(path),
                    order: Vec::new(),
                };
                let mut was_filled = vec![false; m_in * m_out];
                let (mut refills, mut last_removals) = (0, 0);
                let mut next_id = 0u32;
                for round in 0u64..120 {
                    // Bursts, then droughts that drain cells to empty.
                    let burst = if (round / 10) % 2 == 0 { 6 } else { 1 };
                    for _ in 0..rng.gen_range(0..=burst) {
                        let src = rng.gen_range(0..m_in as u32);
                        let dst = *cols.choose(&mut rng).expect("columns");
                        let cell = src as usize * m_out + dst as usize;
                        if core.head[cell] == NIL && was_filled[cell] {
                            refills += 1;
                        }
                        was_filled[cell] = true;
                        core.push_waiting(next_id, src, dst, round);
                        next_id += 1;
                    }
                    check_against_rescan(&mut core);
                    if core.waiting.is_empty() {
                        continue;
                    }
                    let mut sel = match path {
                        0 => Selector::MaxCard,
                        1 => Selector::Policy(&mut fifo),
                        _ => Selector::Policy(&mut pick),
                    };
                    let got = core.select(round, &mut sel).to_vec();
                    if path == 0 {
                        let mut g = BipartiteGraph::new(m_in, m_out);
                        for w in &core.waiting {
                            g.add_edge(w.src, w.dst);
                        }
                        let mut want = max_cardinality_matching(&g);
                        want.sort_unstable();
                        assert_eq!(got, want, "m_out={m_out} round {round}");
                    }
                    if got.last() == Some(&(core.waiting.len() - 1)) {
                        last_removals += 1;
                    }
                    let before = core.waiting.len();
                    core.remove_selection();
                    assert_eq!(core.waiting.len(), before - got.len());
                    check_against_rescan(&mut core);
                }
                assert!(refills > 0, "m_out={m_out} path {path}: no cell refilled");
                assert!(
                    last_removals > 0,
                    "m_out={m_out} path {path}: never removed the last index"
                );
            }
        }
    }

    #[test]
    fn removal_replays_swap_remove_on_the_cell_lists() {
        // Cell A = (0,0) holds 0, 3, 5; cell B = (1,1) holds 1, 2, 4, 6.
        // Removing {2, 4, 6}: 6 is the last index and just leaves; 5
        // moves into slot 4; then that flow moves again into slot 2,
        // landing mid-list in A as {0, 2, 3}.
        let mut core = ExactCore::new(2, 2);
        for (id, c) in [0, 1, 1, 0, 1, 0, 1].into_iter().enumerate() {
            core.push_waiting(id as u32, c, c, 0);
        }
        core.selection = vec![2, 4, 6];
        core.remove_selection();
        let ids: Vec<u32> = core.waiting().iter().map(|w| w.id.0).collect();
        assert_eq!(ids, [0, 1, 5, 3]);
        assert_eq!(walk_cells(&core), [vec![0, 2, 3], vec![], vec![], vec![1]]);
        assert_eq!(core.adj, [vec![(0, 0)], vec![(1, 1)]]);
        check_against_rescan(&mut core);
    }
}
