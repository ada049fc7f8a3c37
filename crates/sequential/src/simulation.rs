//! Rows 18-20: graph pattern matching by simulation.
//!
//! * **Graph simulation** (row 18): Henzinger-Henzinger-Kopke's
//!   counter-based fixpoint \[7\], `O((m + n)(m_q + n_q))`. The maximal
//!   relation `R ⊆ V_Q × V_G` such that labels match and every query edge
//!   `q -> q'` is witnessed by some data edge `u -> u'` with `(q', u') ∈ R`.
//! * **Dual simulation** (row 19, Ma et al. \[11\]): additionally every query
//!   edge `q'' -> q` must be witnessed by an incoming data edge.
//! * **Strong simulation** (row 20, Ma et al. \[11\]): dual simulation
//!   restricted to balls `B(w, d_Q)`; a center `w` matches when it appears
//!   in the ball-local maximum dual simulation.
//!
//! Convention: if some query vertex ends with an empty match set, the
//! simulation does not exist and the result is the empty relation.

use crate::work::Work;
use std::collections::VecDeque;
use vcgp_graph::{Graph, GraphBuilder, VertexId};

/// Result of a simulation baseline: the match relation, stored per data
/// vertex as the sorted set of query vertices it simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimulationResult {
    /// `matches[u]` = sorted query vertices matched by data vertex `u`.
    pub matches: Vec<Vec<VertexId>>,
    /// Whether a (non-empty) simulation exists.
    pub exists: bool,
    /// Operation count.
    pub work: u64,
}

/// Internal fixpoint shared by graph simulation (`dual = false`) and dual
/// simulation (`dual = true`), using HHK-style successor/predecessor
/// counters for the efficient `O((m + n)(m_q + n_q))` bound.
fn simulation_fixpoint(query: &Graph, data: &Graph, dual: bool, work: &mut Work) -> Vec<Vec<bool>> {
    assert!(
        query.is_directed() && data.is_directed(),
        "simulation runs on digraphs"
    );
    let nq = query.num_vertices();
    let n = data.num_vertices();
    // sim[q][u]: u currently a candidate match of q.
    let mut sim: Vec<Vec<bool>> = (0..nq).map(|_| vec![false; n]).collect();
    for (q, row) in sim.iter_mut().enumerate() {
        for (u, slot) in row.iter_mut().enumerate() {
            work.charge(1);
            *slot = query.label(q as VertexId) == data.label(u as VertexId);
        }
    }
    // succ_cnt[q][u] = |{u' : u -> u', sim[q][u']}|;
    // pred_cnt[q][u] = |{u'' : u'' -> u, sim[q][u'']}| (dual only).
    let mut succ_cnt: Vec<Vec<u32>> = (0..nq).map(|_| vec![0; n]).collect();
    let mut pred_cnt: Vec<Vec<u32>> = if dual {
        (0..nq).map(|_| vec![0; n]).collect()
    } else {
        Vec::new()
    };
    for q in 0..nq {
        for u in 0..n as u32 {
            for &u2 in data.out_neighbors(u) {
                work.charge(1);
                if sim[q][u2 as usize] {
                    succ_cnt[q][u as usize] += 1;
                }
            }
            if dual {
                for &u0 in data.in_neighbors(u) {
                    work.charge(1);
                    if sim[q][u0 as usize] {
                        pred_cnt[q][u as usize] += 1;
                    }
                }
            }
        }
    }
    // Seed the removal queue with every (q, u) violating a condition.
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
    let violates = |sim: &Vec<Vec<bool>>,
                    succ_cnt: &Vec<Vec<u32>>,
                    pred_cnt: &Vec<Vec<u32>>,
                    q: u32,
                    u: u32,
                    work: &mut Work| {
        if !sim[q as usize][u as usize] {
            return false;
        }
        for &q2 in query.out_neighbors(q) {
            work.charge(1);
            if succ_cnt[q2 as usize][u as usize] == 0 {
                return true;
            }
        }
        if dual {
            for &q0 in query.in_neighbors(q) {
                work.charge(1);
                if pred_cnt[q0 as usize][u as usize] == 0 {
                    return true;
                }
            }
        }
        false
    };
    for q in 0..nq as u32 {
        for u in 0..n as u32 {
            if violates(&sim, &succ_cnt, &pred_cnt, q, u, work) {
                queue.push_back((q, u));
            }
        }
    }
    // Process removals to the fixpoint.
    while let Some((q, u)) = queue.pop_front() {
        if !sim[q as usize][u as usize] {
            continue;
        }
        sim[q as usize][u as usize] = false;
        work.charge(1);
        // u no longer simulates q: decrement counters of u's in-neighbors
        // (they lose a q-successor) and, in dual mode, out-neighbors.
        for &u_pred in data.in_neighbors(u) {
            work.charge(1);
            succ_cnt[q as usize][u_pred as usize] -= 1;
            if succ_cnt[q as usize][u_pred as usize] == 0 {
                for &q_pred in query.in_neighbors(q) {
                    work.charge(1);
                    if sim[q_pred as usize][u_pred as usize] {
                        queue.push_back((q_pred, u_pred));
                    }
                }
            }
        }
        if dual {
            for &u_succ in data.out_neighbors(u) {
                work.charge(1);
                pred_cnt[q as usize][u_succ as usize] -= 1;
                if pred_cnt[q as usize][u_succ as usize] == 0 {
                    for &q_succ in query.out_neighbors(q) {
                        work.charge(1);
                        if sim[q_succ as usize][u_succ as usize] {
                            queue.push_back((q_succ, u_succ));
                        }
                    }
                }
            }
        }
    }
    sim
}

fn collect(query: &Graph, data: &Graph, sim: Vec<Vec<bool>>, work: u64) -> SimulationResult {
    let exists = sim.iter().all(|row| row.iter().any(|&b| b));
    let n = data.num_vertices();
    let mut matches: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    if exists {
        for (q, row) in sim.iter().enumerate() {
            for (u, &b) in row.iter().enumerate() {
                if b {
                    matches[u].push(q as VertexId);
                }
            }
        }
    }
    let _ = query;
    SimulationResult {
        matches,
        exists,
        work,
    }
}

/// Graph simulation (HHK). Row 18 baseline.
pub fn graph_simulation(query: &Graph, data: &Graph) -> SimulationResult {
    let mut work = Work::new();
    let sim = simulation_fixpoint(query, data, false, &mut work);
    collect(query, data, sim, work.count())
}

/// Dual simulation (Ma et al.). Row 19 baseline.
pub fn dual_simulation(query: &Graph, data: &Graph) -> SimulationResult {
    let mut work = Work::new();
    let sim = simulation_fixpoint(query, data, true, &mut work);
    collect(query, data, sim, work.count())
}

/// Result of strong simulation: per candidate center, the query vertices it
/// matches inside its ball's maximum dual simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrongSimulationResult {
    /// `centers[w]` = sorted query vertices matched by `w` within
    /// `B(w, d_Q)`; empty when `w` is not a strong-simulation center.
    pub centers: Vec<Vec<VertexId>>,
    /// Operation count.
    pub work: u64,
}

/// Diameter of the query pattern viewed as an undirected graph (balls use
/// undirected distance, per Ma et al.).
pub fn query_radius(query: &Graph) -> u32 {
    let und = query.to_undirected();
    vcgp_graph::properties::exact_diameter(&und).expect("query pattern must be connected")
}

/// Strong simulation (Ma et al.). Row 20 baseline.
pub fn strong_simulation(query: &Graph, data: &Graph) -> StrongSimulationResult {
    let mut work = Work::new();
    let n = data.num_vertices();
    let d_q = query_radius(query);
    // Global dual simulation first: centers must appear in it (Ma et al.'s
    // match-graph pruning).
    let global = simulation_fixpoint(query, data, true, &mut work);
    let mut centers: Vec<Vec<VertexId>> = vec![Vec::new(); n];
    let candidate: Vec<bool> = (0..n).map(|u| global.iter().any(|row| row[u])).collect();
    let und = data.to_undirected();
    for w in 0..n as VertexId {
        work.charge(1);
        if !candidate[w as usize] {
            continue;
        }
        // Ball membership by bounded BFS on the undirected view.
        let mut in_ball = vec![u32::MAX; n];
        let mut ball: Vec<VertexId> = Vec::new();
        let mut queue = VecDeque::new();
        in_ball[w as usize] = 0;
        queue.push_back(w);
        ball.push(w);
        while let Some(u) = queue.pop_front() {
            work.charge(1);
            let d = in_ball[u as usize];
            if d == d_q {
                continue;
            }
            for &v in und.out_neighbors(u) {
                work.charge(1);
                if in_ball[v as usize] == u32::MAX {
                    in_ball[v as usize] = d + 1;
                    ball.push(v);
                    queue.push_back(v);
                }
            }
        }
        // Induced labeled sub-digraph on the ball.
        ball.sort_unstable();
        let local_of: std::collections::HashMap<VertexId, u32> = ball
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut b = GraphBuilder::directed(ball.len());
        for &u in &ball {
            for &v in data.out_neighbors(u) {
                work.charge(1);
                if let Some(&lv) = local_of.get(&v) {
                    b.add_edge(local_of[&u], lv);
                }
            }
        }
        b.set_labels(ball.iter().map(|&v| data.label(v)).collect());
        let sub = b.build();
        let local = simulation_fixpoint(query, &sub, true, &mut work);
        let exists = local.iter().all(|row| row.iter().any(|&x| x));
        if !exists {
            continue;
        }
        let lw = local_of[&w];
        for (q, row) in local.iter().enumerate() {
            if row[lw as usize] {
                centers[w as usize].push(q as VertexId);
            }
        }
    }
    StrongSimulationResult {
        centers,
        work: work.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcgp_graph::generators;

    /// Query: A -> B (labels 0 -> 1).
    fn edge_query() -> Graph {
        let mut b = GraphBuilder::directed(2);
        b.add_edge(0, 1);
        b.set_labels(vec![0, 1]);
        b.build()
    }

    /// Data: 0(A) -> 1(B), 2(A) (no outgoing edge), 3(B).
    fn small_data() -> Graph {
        let mut b = GraphBuilder::directed(4);
        b.add_edge(0, 1);
        b.set_labels(vec![0, 1, 0, 1]);
        b.build()
    }

    #[test]
    fn graph_sim_requires_witnessed_children() {
        let r = graph_simulation(&edge_query(), &small_data());
        assert!(r.exists);
        assert_eq!(r.matches[0], vec![0]); // A with a B child
        assert_eq!(r.matches[2], Vec::<u32>::new()); // A without children
                                                     // Graph simulation has no parent condition: both Bs match.
        assert_eq!(r.matches[1], vec![1]);
        assert_eq!(r.matches[3], vec![1]);
    }

    #[test]
    fn dual_sim_also_requires_parents() {
        let r = dual_simulation(&edge_query(), &small_data());
        assert!(r.exists);
        assert_eq!(r.matches[1], vec![1]); // B with an A parent
        assert_eq!(r.matches[3], Vec::<u32>::new()); // orphan B pruned
    }

    #[test]
    fn nonexistent_simulation_is_empty() {
        // Query needs label 2; data has none.
        let mut qb = GraphBuilder::directed(1);
        qb.set_labels(vec![2]);
        let q = qb.build();
        let r = graph_simulation(&q, &small_data());
        assert!(!r.exists);
        assert!(r.matches.iter().all(Vec::is_empty));
    }

    #[test]
    fn cycle_query_on_cycle_data() {
        // Query: 2-cycle A <-> B. Data: 4-cycle A-B-A-B.
        let mut qb = GraphBuilder::directed(2);
        qb.add_edge(0, 1);
        qb.add_edge(1, 0);
        qb.set_labels(vec![0, 1]);
        let q = qb.build();
        let mut db = GraphBuilder::directed(4);
        for i in 0..4u32 {
            db.add_edge(i, (i + 1) % 4);
        }
        db.set_labels(vec![0, 1, 0, 1]);
        let d = db.build();
        let r = dual_simulation(&q, &d);
        assert!(r.exists);
        assert_eq!(r.matches[0], vec![0]);
        assert_eq!(r.matches[1], vec![1]);
        assert_eq!(r.matches[2], vec![0]);
        assert_eq!(r.matches[3], vec![1]);
    }

    #[test]
    fn dual_contained_in_graph_sim() {
        for seed in 0..5 {
            let q = generators::query_pattern(4, 2, 3, seed);
            let d = generators::labeled_digraph(60, 240, 3, seed + 100);
            let gs = graph_simulation(&q, &d);
            let ds = dual_simulation(&q, &d);
            if !gs.exists {
                assert!(!ds.exists, "dual cannot exist where graph-sim fails");
                continue;
            }
            for u in 0..60 {
                for qv in &ds.matches[u] {
                    assert!(
                        gs.matches[u].contains(qv),
                        "seed {seed}: dual match ({qv},{u}) missing from graph sim"
                    );
                }
            }
        }
    }

    #[test]
    fn graph_sim_fixpoint_is_maximal() {
        // Every surviving pair must satisfy the child condition; every
        // removed pair with matching label must violate it against the
        // final relation (soundness of the fixpoint).
        let q = generators::query_pattern(4, 2, 2, 3);
        let d = generators::labeled_digraph(40, 160, 2, 7);
        let r = graph_simulation(&q, &d);
        if !r.exists {
            return;
        }
        let matched = |qv: u32, u: u32| r.matches[u as usize].contains(&qv);
        for qv in q.vertices() {
            for u in d.vertices() {
                let sat = q.label(qv) == d.label(u)
                    && q.out_neighbors(qv)
                        .iter()
                        .all(|&q2| d.out_neighbors(u).iter().any(|&u2| matched(q2, u2)));
                assert_eq!(
                    matched(qv, u),
                    sat,
                    "pair ({qv},{u}) inconsistent with fixpoint"
                );
            }
        }
    }

    #[test]
    fn strong_sim_centers_subset_of_dual() {
        for seed in 0..4 {
            let q = generators::query_pattern(4, 2, 3, seed);
            let d = generators::labeled_digraph(40, 160, 3, seed + 50);
            let ds = dual_simulation(&q, &d);
            let ss = strong_simulation(&q, &d);
            for u in 0..40usize {
                for qv in &ss.centers[u] {
                    assert!(
                        ds.matches[u].contains(qv),
                        "seed {seed}: strong center ({qv},{u}) not in dual sim"
                    );
                }
            }
        }
    }

    #[test]
    fn strong_sim_ball_restriction_prunes() {
        // A long chain A->B->...; with a 2-vertex query the ball around a
        // far-away A still contains its B child, so it stays a center; but
        // an A at the very end with no B in reach is pruned.
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1);
        b.set_labels(vec![0, 1, 0]);
        let d = b.build();
        let ss = strong_simulation(&edge_query(), &d);
        assert_eq!(ss.centers[0], vec![0]);
        assert!(ss.centers[2].is_empty(), "isolated A cannot be a center");
    }

    #[test]
    fn query_radius_of_patterns() {
        assert_eq!(query_radius(&edge_query()), 1);
        let q = generators::query_pattern(5, 2, 3, 1);
        assert!(query_radius(&q) >= 1);
    }
}
