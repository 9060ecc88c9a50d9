//! The FUB-partitioned relaxation loop (§5.2).
//!
//! "We chose to deal with this situation using a relaxation approach that
//! calculates the AVF for the entire design repeatedly over several
//! iterations, refining the AVF values each iteration. … During subsequent
//! analysis iterations (defined to be one up and one down walk through the
//! netlist for each FUB), the merged FUBIO information is used as an input
//! to the analysis. … any walk can only cross one partition during each
//! iteration."
//!
//! Each iteration re-walks FUBs against the iteration-start annotations
//! (the FUBIO merge of the previous iteration) and measures both
//! structural change (how many node annotations got a new term set) and
//! numeric change (the largest pAVF movement under a given term-value
//! vector). Convergence is declared when nothing changes structurally — an
//! exact, input-independent criterion available because the propagation is
//! symbolic.
//!
//! # Parallelism: sharded arenas with a canonicalizing barrier
//!
//! Because every cross-FUB edge reads from the iteration-start snapshot
//! (Jacobi relaxation), the per-FUB walks of one iteration are data
//! parallel. The obstacle to running them concurrently is the hash-consing
//! [`UnionArena`]: walks intern new term sets, and a shared arena would
//! need locking on the hot path.
//!
//! [`relax_partitioned`] instead gives each worker a private *shard* arena.
//! A worker walks its FUBs interning locally (importing snapshot and
//! source sets by term content, memoized per shared id), and at the end of
//! the iteration the main thread canonicalizes every walked node's final
//! term set into the shared arena in deterministic FUB/topological order.
//! Canonical [`SetId`]s therefore depend only on the netlist and inputs —
//! never on the thread count — so the parallel engine is bit-identical to
//! the sequential one (which runs the very same shard machinery inline).
//! Shard-local intermediate sets (partial unions) die with the shard and
//! never pollute the shared arena. FUBs are assigned to workers by
//! longest-processing-time scheduling over per-FUB topo sizes; only the
//! grouping depends on that choice, never the results.
//!
//! # Incremental dirty-FUB sweeps
//!
//! A FUB's walk is a pure function of its own sources and the boundary
//! annotations it reads across the partition (recorded in
//! [`BoundaryDeps`] during preparation). After the first sweep, a FUB can
//! therefore only produce new annotations if one of those boundary values
//! changed in the previous sweep. [`relax_partitioned`] exploits this at
//! two granularities:
//!
//! * **FUB level** — at every iteration barrier it diffs exactly the
//!   cross-FUB-read boundary nodes against a sparse snapshot and marks the
//!   consumer FUBs dirty; the next sweep walks only dirty FUBs while clean
//!   FUBs keep their annotations untouched.
//! * **Node level** — inside a dirty FUB, recomputation is confined to the
//!   cone of the change: a node is re-evaluated only if one of its reads
//!   moved — a cross-FUB boundary value that changed at the last barrier,
//!   or a same-FUB predecessor recomputed to a new set earlier in this
//!   sweep. Change propagation stops as soon as a recomputed node
//!   reproduces its previous set, so the walked frontier shrinks with the
//!   residual instead of staying FUB-sized.
//!
//! Results are bit-identical to full sweeps, including [`SetId`]
//! numbering: a skipped node's annotation equals what a recompute would
//! produce (same inputs, same deterministic walk), so the full engine's
//! canonicalization of it is an arena no-op — new shared sets only ever
//! arise at recomputed-and-changed nodes, which both modes intern in the
//! same ascending FUB/topological order. The per-sweep
//! `changed_sets`/`max_delta` telemetry is identical too, because skipped
//! nodes contribute zero changes either way.
//!
//! [`UnionArena`]: crate::arena::UnionArena
//! [`BoundaryDeps`]: crate::walk::BoundaryDeps

use std::collections::HashMap;
use std::time::Instant;

use seqavf_netlist::graph::{FubId, NodeId};
use seqavf_obs::{Collector, FieldValue};

use crate::arena::{SetId, UnionArena};
use crate::walk::{BoundaryDeps, Propagator};

/// Minimum node count before [`relax_partitioned`] engages worker
/// threads. Below this the per-iteration spawn/join and shard
/// canonicalization overhead exceeds the work the walks split — BENCH_6
/// measured 8 threads at 0.46× and 32 threads at 0.40× of the sequential
/// wall time on the ~3k-node reference design — so small designs take the
/// sequential path regardless of the requested thread count. Same rule as
/// the flatten crossover in `seqavf-netlist`.
pub const RELAX_PARALLEL_WORK_THRESHOLD: usize = 20_000;

/// Per-iteration convergence telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Node annotations whose term set changed this iteration.
    pub changed_sets: usize,
    /// Largest numeric pAVF movement across node annotations.
    pub max_delta: f64,
    /// FUBs walked this sweep (all of them in full-sweep mode; only the
    /// boundary-dirty ones in incremental mode).
    pub dirty_fubs: usize,
    /// FUBs skipped this sweep because no boundary value they read
    /// changed (always 0 in full-sweep mode).
    pub skipped_fubs: usize,
    /// Nodes actually recomputed this sweep (in either walk direction) —
    /// the work metric the incremental mode reduces. Full sweeps recompute
    /// every node of every FUB; incremental sweeps only the change cones
    /// inside dirty FUBs.
    pub walked_nodes: usize,
    /// Mean sequential-node `MIN(F, B)` value per FUB after this iteration
    /// (the paper's convergence plot, §6.1).
    pub fub_seq_mean: Vec<f64>,
    /// Worker threads this sweep actually engaged after the small-design
    /// clamp ([`RELAX_PARALLEL_WORK_THRESHOLD`]) — 1 when the design was
    /// too small to profit from the requested parallelism, the requested
    /// count otherwise. Results never depend on it; wall time does.
    pub effective_threads: usize,
    /// Wall-clock time this iteration took (walks, barrier, telemetry),
    /// in seconds.
    pub wall_seconds: f64,
}

/// Outcome of the relaxation loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxOutcome {
    /// Productive sweeps executed. When the loop converges, the final
    /// sweep merely *verifies* that nothing changes; it appears in
    /// [`RelaxOutcome::trace`] but is not counted here.
    pub iterations: usize,
    /// Whether a verification sweep observed `changed_sets == 0` before
    /// the iteration cap.
    pub converged: bool,
    /// Telemetry per sweep, including the final verification sweep.
    pub trace: Vec<IterationStats>,
}

impl RelaxOutcome {
    /// Total wall-clock time across all sweeps, in seconds.
    pub fn total_wall_seconds(&self) -> f64 {
        self.trace.iter().map(|s| s.wall_seconds).sum()
    }

    /// Mean wall-clock time per sweep, in seconds.
    pub fn mean_iteration_seconds(&self) -> f64 {
        if self.trace.is_empty() {
            0.0
        } else {
            self.total_wall_seconds() / self.trace.len() as f64
        }
    }

    /// Total nodes walked across all sweeps — the sweep-work metric the
    /// incremental mode reduces.
    pub fn total_walked_nodes(&self) -> usize {
        self.trace.iter().map(|s| s.walked_nodes).sum()
    }
}

/// The annotations one worker recomputed for one FUB: `(topo index,
/// shard-local set)` pairs in ascending topological order, one list per
/// walk direction. Nodes absent from both lists kept their previous
/// annotations (skipped by the change-cone rule).
struct FubAnnotations {
    fub: FubId,
    fwd: Vec<(u32, SetId)>,
    bwd: Vec<(u32, SetId)>,
}

/// One worker's share of an iteration: its shard arena, the recomputed
/// annotations of every FUB it walked, and how many nodes it actually
/// re-evaluated (in either direction).
struct ShardOutput {
    shard: UnionArena,
    fubs: Vec<FubAnnotations>,
    walked: usize,
}

/// The boundary-read annotations that changed at the last iteration
/// barrier, indexed by node. Workers consult these to decide whether a
/// cross-FUB read forces a recompute; [`mark_dirty`] refreshes every
/// boundary-read entry at each barrier (non-boundary entries stay false
/// forever).
struct ChangedMaps {
    fwd: Vec<bool>,
    bwd: Vec<bool>,
}

/// Reusable per-worker walk state, allocated once per relaxation run
/// instead of once per sweep: the node-count-sized scratch vectors plus
/// the shared→shard set-translation memo.
struct Scratch {
    local_f: Vec<SetId>,
    local_b: Vec<SetId>,
    /// Whether the node was recomputed (`*_fresh`) and whether that
    /// recompute produced a new set (`*_changed`) in the current sweep.
    /// Like the value vectors, entries are written before they are read
    /// within a FUB walk, so no per-sweep clearing is needed.
    f_fresh: Vec<bool>,
    b_fresh: Vec<bool>,
    f_changed: Vec<bool>,
    b_changed: Vec<bool>,
    /// Shared-arena `SetId` → shard `SetId`. Valid for one sweep only
    /// (every sweep builds a fresh shard arena), cleared at sweep start.
    memo: HashMap<SetId, SetId>,
}

impl Scratch {
    fn new(node_count: usize) -> Scratch {
        // The fill values are never read: within a FUB walk, `fub_topo`
        // guarantees same-FUB fan-in/fan-out entries were written earlier
        // in the same sweep, and cross-FUB edges never read the scratch.
        let top = UnionArena::new().top();
        Scratch {
            local_f: vec![top; node_count],
            local_b: vec![top; node_count],
            f_fresh: vec![false; node_count],
            b_fresh: vec![false; node_count],
            f_changed: vec![false; node_count],
            b_changed: vec![false; node_count],
            memo: HashMap::new(),
        }
    }
}

/// Translates a shared-arena set into the shard. Memoized per shared id,
/// so each distinct snapshot/source set is content-hashed at most once
/// per sweep instead of once per reading edge.
fn import(
    memo: &mut HashMap<SetId, SetId>,
    shard: &mut UnionArena,
    shared: &UnionArena,
    s: SetId,
) -> SetId {
    *memo
        .entry(s)
        .or_insert_with(|| shard.intern_terms(shared.terms(s)))
}

/// Walks a slice of FUBs against the iteration-start annotations,
/// interning every recomputed set into a private shard arena. Mirrors
/// [`Propagator::forward_pass`]/[`Propagator::backward_pass`] exactly,
/// including the conservative TOP for zero-fanin non-source nodes.
///
/// Unless `force_all` is set (full sweeps, and the flooding first sweep
/// of an incremental run), a node is re-evaluated only if one of its
/// reads moved: a cross-FUB boundary value flagged in `changed`, or a
/// same-FUB neighbour recomputed to a new set earlier in this sweep.
/// Skipped nodes keep their shared annotations — by purity of the walk,
/// recomputing them would reproduce those sets exactly.
///
/// The propagator's own `fwd`/`bwd` vectors serve directly as the Jacobi
/// snapshot: the barrier mutates them only after every worker of the
/// sweep has finished, so no per-iteration clone is needed.
fn walk_fubs_sharded(
    prop: &Propagator<'_>,
    fubs: &[FubId],
    scratch: &mut Scratch,
    changed: &ChangedMaps,
    force_all: bool,
) -> ShardOutput {
    let nl = prop.nl;
    let shared = &prop.arena;
    let (snap_f, snap_b) = (&prop.fwd, &prop.bwd);
    // Worst case this shard interns a set per direction per node it
    // walks; sizing from the shard's FUB topologies skips the rehashes.
    let shard_nodes: usize = fubs
        .iter()
        .map(|f| prop.prep.fub_topo[f.index()].len())
        .sum();
    let mut shard = UnionArena::with_capacity(shard_nodes);
    scratch.memo.clear();
    let Scratch {
        local_f,
        local_b,
        f_fresh,
        b_fresh,
        f_changed,
        b_changed,
        memo,
    } = scratch;
    let mut out = Vec::with_capacity(fubs.len());
    let mut walked = 0usize;
    for &fub in fubs {
        let order = &prop.prep.fub_topo[fub.index()];
        let mut fwd_new: Vec<(u32, SetId)> = Vec::new();
        let mut bwd_new: Vec<(u32, SetId)> = Vec::new();
        for (k, &node) in order.iter().enumerate() {
            let i = node.index();
            let needs = force_all
                || (prop.prep.fwd_source[i].is_none()
                    && nl.fanin(node).iter().any(|&f| {
                        if nl.fub(f) == fub {
                            f_changed[f.index()]
                        } else {
                            changed.fwd[f.index()]
                        }
                    }));
            if !needs {
                f_fresh[i] = false;
                f_changed[i] = false;
                continue;
            }
            let v = if let Some(s) = prop.prep.fwd_source[i] {
                import(memo, &mut shard, shared, s)
            } else if nl.fanin(node).is_empty() {
                shard.top()
            } else {
                let mut acc = shard.empty();
                for &f in nl.fanin(node) {
                    let v = if nl.fub(f) == fub && f_fresh[f.index()] {
                        local_f[f.index()]
                    } else {
                        import(memo, &mut shard, shared, snap_f[f.index()])
                    };
                    acc = shard.union2(acc, v);
                }
                acc
            };
            local_f[i] = v;
            f_fresh[i] = true;
            f_changed[i] = v != import(memo, &mut shard, shared, snap_f[i]);
            fwd_new.push((k as u32, v));
        }
        for (k, &node) in order.iter().enumerate().rev() {
            let i = node.index();
            let needs = force_all
                || (prop.prep.bwd_source[i].is_none()
                    && nl.fanout(node).iter().any(|&m| {
                        prop.prep.bwd_contrib[m.index()].is_none()
                            && if nl.fub(m) == fub {
                                b_changed[m.index()]
                            } else {
                                changed.bwd[m.index()]
                            }
                    }));
            if needs {
                let v = if let Some(s) = prop.prep.bwd_source[i] {
                    import(memo, &mut shard, shared, s)
                } else {
                    let mut acc = shard.empty();
                    for &m in nl.fanout(node) {
                        let v = if let Some(c) = prop.prep.bwd_contrib[m.index()] {
                            import(memo, &mut shard, shared, c)
                        } else if nl.fub(m) == fub && b_fresh[m.index()] {
                            local_b[m.index()]
                        } else {
                            import(memo, &mut shard, shared, snap_b[m.index()])
                        };
                        acc = shard.union2(acc, v);
                    }
                    acc
                };
                local_b[i] = v;
                b_fresh[i] = true;
                b_changed[i] = v != import(memo, &mut shard, shared, snap_b[i]);
                bwd_new.push((k as u32, v));
            } else {
                b_fresh[i] = false;
                b_changed[i] = false;
            }
            if f_fresh[i] || b_fresh[i] {
                walked += 1;
            }
        }
        // Collected in reverse topological order; the barrier interns in
        // ascending order to match the full engine's id assignment.
        bwd_new.reverse();
        out.push(FubAnnotations {
            fub,
            fwd: fwd_new,
            bwd: bwd_new,
        });
    }
    ShardOutput {
        shard,
        fubs: out,
        walked,
    }
}

/// Longest-processing-time assignment of FUBs to `workers` groups,
/// weighted by per-FUB topo size: biggest FUB first, each to the
/// least-loaded worker. Keeps sweeps balanced even when the incremental
/// dirty set is a skewed slice of the design. Only the grouping depends
/// on this choice — the barrier canonicalizes in ascending FUB order
/// regardless, so results are unaffected.
fn lpt_partition(fubs: &[FubId], fub_topo: &[Vec<NodeId>], workers: usize) -> Vec<Vec<FubId>> {
    let mut order: Vec<FubId> = fubs.to_vec();
    order.sort_by_key(|&f| (std::cmp::Reverse(fub_topo[f.index()].len()), f.index()));
    let mut loads = vec![0usize; workers];
    let mut parts: Vec<Vec<FubId>> = vec![Vec::new(); workers];
    for f in order {
        let w = (0..workers)
            .min_by_key(|&w| (loads[w], w))
            .expect("at least one worker");
        parts[w].push(f);
        loads[w] += fub_topo[f.index()].len().max(1);
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// One relaxation sweep over `active` (which must be ascending by FUB id):
/// walk the FUBs concurrently when `threads > 1`, then canonicalize the
/// shard results into the shared arena at the iteration barrier, diffing
/// each recomputed node against its previous annotation in the same pass.
///
/// Returns `(changed_sets, max_delta, recomputed_nodes)`.
fn sharded_sweep(
    prop: &mut Propagator<'_>,
    active: &[FubId],
    threads: usize,
    scratch: &mut [Scratch],
    values: &[f64],
    changed_maps: &ChangedMaps,
    force_all: bool,
) -> (usize, f64, usize) {
    if active.is_empty() {
        return (0, 0.0, 0);
    }
    let workers = threads.max(1).min(active.len());
    let outputs: Vec<ShardOutput> = if workers == 1 {
        vec![walk_fubs_sharded(
            prop,
            active,
            &mut scratch[0],
            changed_maps,
            force_all,
        )]
    } else {
        let parts = lpt_partition(active, &prop.prep.fub_topo, workers);
        let prop_ref: &Propagator<'_> = prop;
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .zip(scratch.iter_mut())
                .map(|(part, scr)| {
                    s.spawn(move || walk_fubs_sharded(prop_ref, part, scr, changed_maps, force_all))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("relaxation worker panicked"))
                .collect()
        })
    };
    // Iteration barrier: canonicalize shard-local sets into the shared
    // arena in FUB order, nodes in topological order. The interning order
    // — and with it every canonical SetId — is fully deterministic and
    // independent of how FUBs were distributed over workers. Nodes the
    // change-cone rule skipped kept their previous (already canonical)
    // annotations and need no interning at all.
    let mut where_is: Vec<(u32, u32)> = vec![(u32::MAX, 0); prop.nl.fub_count()];
    for (oi, o) in outputs.iter().enumerate() {
        for (fi, fa) in o.fubs.iter().enumerate() {
            where_is[fa.fub.index()] = (oi as u32, fi as u32);
        }
    }
    let mut changed = 0usize;
    let mut max_delta = 0.0f64;
    for &fub in active {
        let (oi, fi) = where_is[fub.index()];
        let o = &outputs[oi as usize];
        let fa = &o.fubs[fi as usize];
        debug_assert_eq!(fa.fub, fub);
        let order = &prop.prep.fub_topo[fub.index()];
        for &(k, s) in &fa.fwd {
            let i = order[k as usize].index();
            let new = prop.arena.intern_terms(o.shard.terms(s));
            if new != prop.fwd[i] {
                changed += 1;
                let d = (prop.arena.eval(new, values) - prop.arena.eval(prop.fwd[i], values)).abs();
                max_delta = max_delta.max(d);
                prop.fwd[i] = new;
            }
        }
        for &(k, s) in &fa.bwd {
            let i = order[k as usize].index();
            let new = prop.arena.intern_terms(o.shard.terms(s));
            if new != prop.bwd[i] {
                changed += 1;
                let d = (prop.arena.eval(new, values) - prop.arena.eval(prop.bwd[i], values)).abs();
                max_delta = max_delta.max(d);
                prop.bwd[i] = new;
            }
        }
    }
    let walked = outputs.iter().map(|o| o.walked).sum();
    (changed, max_delta, walked)
}

/// Diffs the boundary-read annotations against their sparse snapshots,
/// updating the snapshots in place, refreshing the per-node changed maps
/// the workers' change-cone rule reads, and marking every consumer FUB of
/// a changed value dirty. This is the §5.2 observation that recomputation
/// is confined to the cone downstream of a changed FUBIO value.
fn mark_dirty(
    boundary: &BoundaryDeps,
    fwd: &[SetId],
    bwd: &[SetId],
    snap_f: &mut [SetId],
    snap_b: &mut [SetId],
    changed_maps: &mut ChangedMaps,
    dirty: &mut [bool],
) {
    for (k, &node) in boundary.fwd_reads.iter().enumerate() {
        let cur = fwd[node.index()];
        let moved = cur != snap_f[k];
        changed_maps.fwd[node.index()] = moved;
        if moved {
            snap_f[k] = cur;
            for &f in boundary.fwd_consumers_of(k) {
                dirty[f.index()] = true;
            }
        }
    }
    for (k, &node) in boundary.bwd_reads.iter().enumerate() {
        let cur = bwd[node.index()];
        let moved = cur != snap_b[k];
        changed_maps.bwd[node.index()] = moved;
        if moved {
            snap_b[k] = cur;
            for &f in boundary.bwd_consumers_of(k) {
                dirty[f.index()] = true;
            }
        }
    }
}

/// Runs partitioned relaxation to a structural fixpoint, fanning the
/// per-FUB walks of each iteration out over `threads` workers with
/// per-worker arena shards (see the module docs). Any thread count yields
/// bit-identical annotations and `SetId` numbering.
///
/// Each sweep walks only the FUBs whose cross-partition boundary reads
/// changed in the previous sweep; clean FUBs keep their annotations
/// untouched. Annotations, `SetId` numbering, and per-sweep
/// `changed_sets`/`max_delta` telemetry are bit-identical to full sweeps
/// (the oracle behind [`crate::engine::SartEngine::run_full_sweeps`]) —
/// only the work (`walked_nodes`) shrinks.
///
/// `seed_dirty` selects a cold or a warm solve. `None` floods every FUB
/// on the first sweep. `Some(dirty)` means the caller has already seeded
/// `prop.fwd`/`prop.bwd` with a previously converged fixpoint (see
/// `crate::fixpoint`) and `dirty` flags exactly the FUBs whose content
/// changed since that fixpoint was captured: the first sweep force-walks
/// only those FUBs, and from there the ordinary cross-FUB dirty
/// propagation takes over, so work stays proportional to the edit's
/// change cone. Correctness leans on the same invariant as within-run
/// incremental sweeps: a skipped node's annotation is reproduced exactly
/// by recomputing it as long as none of its reads moved. Seeded
/// annotations satisfy that invariant for every FUB whose content —
/// including its cross-FUB wiring, captured by `Netlist::fub_digests` —
/// is unchanged; any value that does move is diffed at the iteration
/// barrier and its consumers re-walked. A warm solve's converged
/// annotations (and therefore the resolved AVFs) are bit-identical to a
/// cold solve; only `SetId` numbering and the work telemetry differ.
///
/// `values` supplies term values for the numeric telemetry only; the
/// propagation itself is symbolic and independent of them.
///
/// Every sweep is reported to `obs` as a `relax.sweep` span sharing the
/// single per-sweep clock measurement with [`IterationStats`], plus the
/// `relax.changed_sets` monotonic counter; collection never affects the
/// computed annotations.
///
/// `threads` is a *ceiling*, not a demand: designs below
/// [`RELAX_PARALLEL_WORK_THRESHOLD`] nodes run sequentially regardless,
/// because the spawn/canonicalize overhead inverts the speedup there.
/// The decision is visible as [`IterationStats::effective_threads`] and
/// the `relax.sweep` span's `threads`/`requested_threads` fields.
/// Equivalence tests and benchmarks that must exercise the parallel
/// machinery on small designs use [`relax_partitioned_exact`].
pub fn relax_partitioned(
    prop: &mut Propagator<'_>,
    values: &[f64],
    max_iterations: usize,
    threads: usize,
    seed_dirty: Option<&[bool]>,
    obs: &Collector,
) -> RelaxOutcome {
    let effective = clamp_threads(prop, threads);
    relax_partitioned_inner(
        prop,
        values,
        max_iterations,
        threads,
        effective,
        true,
        seed_dirty,
        obs,
    )
}

/// [`relax_partitioned`] without the small-design clamp: engages exactly
/// `threads` workers whatever the node count. Bit-identical results either
/// way — this exists so thread-equivalence tests and benchmark curves can
/// drive the sharded path on designs below the crossover.
pub fn relax_partitioned_exact(
    prop: &mut Propagator<'_>,
    values: &[f64],
    max_iterations: usize,
    threads: usize,
    seed_dirty: Option<&[bool]>,
    obs: &Collector,
) -> RelaxOutcome {
    relax_partitioned_inner(
        prop,
        values,
        max_iterations,
        threads,
        threads,
        true,
        seed_dirty,
        obs,
    )
}

/// Cold partitioned relaxation that re-walks every FUB on every sweep —
/// the full-sweep oracle the dirty-FUB skipping of [`relax_partitioned`]
/// is pinned against. Same thread clamp as [`relax_partitioned`].
pub(crate) fn relax_full_sweeps(
    prop: &mut Propagator<'_>,
    values: &[f64],
    max_iterations: usize,
    threads: usize,
    obs: &Collector,
) -> RelaxOutcome {
    let effective = clamp_threads(prop, threads);
    relax_partitioned_inner(
        prop,
        values,
        max_iterations,
        threads,
        effective,
        false,
        None,
        obs,
    )
}

/// The small-design thread clamp: one worker below
/// [`RELAX_PARALLEL_WORK_THRESHOLD`] nodes, `threads` otherwise.
fn clamp_threads(prop: &Propagator<'_>, threads: usize) -> usize {
    if threads > 1 && prop.nl.node_count() < RELAX_PARALLEL_WORK_THRESHOLD {
        1
    } else {
        threads
    }
}

/// The relaxation loop behind every partitioned entry point. `threads`
/// workers run each sweep (`requested_threads` is only reported);
/// `incremental` false re-walks every FUB every sweep, which only the
/// full-sweep oracle and its tests ask for.
#[allow(clippy::too_many_arguments)]
fn relax_partitioned_inner(
    prop: &mut Propagator<'_>,
    values: &[f64],
    max_iterations: usize,
    requested_threads: usize,
    threads: usize,
    incremental: bool,
    warm_dirty: Option<&[bool]>,
    obs: &Collector,
) -> RelaxOutcome {
    let fub_count = prop.nl.fub_count();
    let all_fubs: Vec<FubId> = prop.nl.fub_ids().collect();
    let workers = threads.max(1).min(fub_count.max(1));
    let mut scratch: Vec<Scratch> = (0..workers)
        .map(|_| Scratch::new(prop.nl.node_count()))
        .collect();
    // Sparse FUBIO snapshots: only the boundary-read annotations persist
    // across iterations (for the dirty diff), never the full 2×node_count
    // vectors.
    let mut snap_f: Vec<SetId> = prop
        .prep
        .boundary
        .fwd_reads
        .iter()
        .map(|n| prop.fwd[n.index()])
        .collect();
    let mut snap_b: Vec<SetId> = prop
        .prep
        .boundary
        .bwd_reads
        .iter()
        .map(|n| prop.bwd[n.index()])
        .collect();
    // Cold solves flood every FUB on the first sweep; a warm start seeds
    // the dirty vector with just the FUBs whose digests moved, so iter 0
    // force-walks only the edit's footprint.
    let mut dirty = match warm_dirty {
        Some(seed) => {
            debug_assert_eq!(seed.len(), fub_count);
            seed.to_vec()
        }
        None => vec![true; fub_count],
    };
    let mut changed_maps = ChangedMaps {
        fwd: vec![false; prop.nl.node_count()],
        bwd: vec![false; prop.nl.node_count()],
    };

    let mut trace = Vec::new();
    let mut converged = false;
    for iter in 0..max_iterations {
        let t0 = Instant::now();
        let active: Vec<FubId> = if incremental {
            all_fubs
                .iter()
                .copied()
                .filter(|f| dirty[f.index()])
                .collect()
        } else {
            all_fubs.clone()
        };
        let dirty_fubs = active.len();
        let skipped_fubs = fub_count - dirty_fubs;
        // The first sweep floods every node (annotations start at the
        // conservative defaults); afterwards the change-cone rule applies.
        let force_all = !incremental || iter == 0;
        let (changed, max_delta, walked_nodes) = sharded_sweep(
            prop,
            &active,
            threads,
            &mut scratch,
            values,
            &changed_maps,
            force_all,
        );
        if incremental {
            dirty.fill(false);
            mark_dirty(
                &prop.prep.boundary,
                &prop.fwd,
                &prop.bwd,
                &mut snap_f,
                &mut snap_b,
                &mut changed_maps,
                &mut dirty,
            );
        }
        let wall = t0.elapsed();
        obs.record_span(
            "relax.sweep",
            t0,
            wall,
            vec![
                ("iter", FieldValue::U64(iter as u64)),
                ("changed_sets", FieldValue::U64(changed as u64)),
                ("max_delta", FieldValue::F64(max_delta)),
                ("threads", FieldValue::U64(threads as u64)),
                (
                    "requested_threads",
                    FieldValue::U64(requested_threads as u64),
                ),
                ("dirty_fubs", FieldValue::U64(dirty_fubs as u64)),
                ("skipped_fubs", FieldValue::U64(skipped_fubs as u64)),
            ],
        );
        obs.count("relax.changed_sets", changed as u64);
        obs.count("relax.walked_nodes", walked_nodes as u64);
        trace.push(IterationStats {
            changed_sets: changed,
            max_delta,
            dirty_fubs,
            skipped_fubs,
            walked_nodes,
            fub_seq_mean: fub_seq_means(prop, values),
            effective_threads: threads.max(1),
            wall_seconds: wall.as_secs_f64(),
        });
        if changed == 0 {
            converged = true;
            break;
        }
    }
    // The sweep that observes no change is a verification, not a
    // productive iteration; report only the sweeps that moved values.
    let iterations = if converged {
        trace.len().saturating_sub(1)
    } else {
        trace.len()
    };
    RelaxOutcome {
        iterations,
        converged,
        trace,
    }
}

/// Runs the unpartitioned global analysis: one down walk and one up walk
/// over the whole design. Because the loop-cut graph is acyclic, this
/// computes the same fixpoint the partitioned relaxation converges to —
/// but the claim is *verified*, not assumed: a second sweep re-walks the
/// design and the outcome reports convergence only if it changed nothing.
pub fn solve_global(prop: &mut Propagator<'_>, values: &[f64], obs: &Collector) -> RelaxOutcome {
    let fub_count = prop.nl.fub_count();
    let mut trace = Vec::new();
    for sweep in 0..2 {
        let t0 = Instant::now();
        let snap_f = prop.fwd.clone();
        let snap_b = prop.bwd.clone();
        prop.forward_pass(None, None);
        prop.backward_pass(None, None);
        let (changed, max_delta) = diff_stats(prop, &snap_f, &snap_b, values);
        let wall = t0.elapsed();
        obs.record_span(
            "relax.sweep",
            t0,
            wall,
            vec![
                ("iter", FieldValue::U64(sweep as u64)),
                ("changed_sets", FieldValue::U64(changed as u64)),
                ("max_delta", FieldValue::F64(max_delta)),
                ("threads", FieldValue::U64(1)),
                ("requested_threads", FieldValue::U64(1)),
                ("dirty_fubs", FieldValue::U64(fub_count as u64)),
                ("skipped_fubs", FieldValue::U64(0)),
            ],
        );
        obs.count("relax.changed_sets", changed as u64);
        obs.count("relax.walked_nodes", prop.nl.node_count() as u64);
        trace.push(IterationStats {
            changed_sets: changed,
            max_delta,
            dirty_fubs: fub_count,
            skipped_fubs: 0,
            walked_nodes: prop.nl.node_count(),
            fub_seq_mean: fub_seq_means(prop, values),
            effective_threads: 1,
            wall_seconds: wall.as_secs_f64(),
        });
    }
    let converged = trace.last().is_some_and(|s| s.changed_sets == 0);
    let iterations = if converged {
        trace.len().saturating_sub(1)
    } else {
        trace.len()
    };
    RelaxOutcome {
        iterations,
        converged,
        trace,
    }
}

/// Counts annotation changes against a snapshot and the largest numeric
/// movement under `values` (global mode only; the partitioned barrier
/// diffs inline while canonicalizing).
fn diff_stats(
    prop: &Propagator<'_>,
    snap_f: &[SetId],
    snap_b: &[SetId],
    values: &[f64],
) -> (usize, f64) {
    let mut changed = 0usize;
    let mut max_delta = 0.0f64;
    for i in 0..prop.nl.node_count() {
        if prop.fwd[i] != snap_f[i] {
            changed += 1;
            let d =
                (prop.arena.eval(prop.fwd[i], values) - prop.arena.eval(snap_f[i], values)).abs();
            max_delta = max_delta.max(d);
        }
        if prop.bwd[i] != snap_b[i] {
            changed += 1;
            let d =
                (prop.arena.eval(prop.bwd[i], values) - prop.arena.eval(snap_b[i], values)).abs();
            max_delta = max_delta.max(d);
        }
    }
    (changed, max_delta)
}

/// Mean `MIN(F, B)` over the sequential nodes of each FUB. Evaluates the
/// arena once (`eval_all`) and then reads per-node values in O(1) —
/// bit-identical to per-node `eval`, which computes the same capped sum.
fn fub_seq_means(prop: &Propagator<'_>, values: &[f64]) -> Vec<f64> {
    let nl = prop.nl;
    let set_vals = prop.arena.eval_all(values);
    let mut sums = vec![0.0f64; nl.fub_count()];
    let mut counts = vec![0usize; nl.fub_count()];
    for id in nl.seq_nodes() {
        let i = id.index();
        let v = set_vals[prop.fwd[i].index()].min(set_vals[prop.bwd[i].index()]);
        let f = nl.fub(id).index();
        sums[f] += v;
        counts[f] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::UnionArena;
    use crate::classify::classify;
    use crate::mapping::StructureMapping;
    use crate::walk::prepare;
    use seqavf_netlist::flatten::parse_netlist;
    use seqavf_netlist::graph::Netlist;
    use seqavf_netlist::scc::find_loops;

    /// Three FUBs chained: a value must cross two partition boundaries, so
    /// partitioned relaxation needs at least three iterations to converge.
    const CHAIN: &str = r"
.design chain
.fub a
  .struct s1 1
  .flop q s1[0]
  .output o q
.endfub
.fub b
  .flop r a.o
  .output o r
.endfub
.fub c
  .struct s2 1
  .flop t b.o
  .sw s2[0] t
.endfub
.end
";

    /// Four FUBs: `a` fans out to `b` and `c`; `d` is fully isolated.
    const FANOUT: &str = r"
.design fanout
.fub a
  .struct s1 1
  .flop q s1[0]
  .output o q
.endfub
.fub b
  .struct s2 1
  .flop r a.o
  .sw s2[0] r
.endfub
.fub c
  .struct s3 1
  .flop t a.o
  .sw s3[0] t
.endfub
.fub d
  .struct s4 1
  .flop u s4[0]
  .sw s4[0] u
.endfub
.end
";

    fn propagator(text: &str) -> (Netlist, Propagator<'static>) {
        let nl = Box::leak(Box::new(parse_netlist(text).unwrap()));
        let loops = find_loops(nl);
        let roles = classify(nl, &loops, &["creg".to_owned()]);
        let mut arena = UnionArena::new();
        let prep = prepare(nl, roles, &StructureMapping::new(), &mut arena);
        (nl.clone(), Propagator::new(nl, prep, arena))
    }

    fn default_values(prop: &Propagator<'_>) -> Vec<f64> {
        prop.prep
            .terms
            .values(&|_| Some((0.25, 0.5)), &|_| Some(0.3), 1.0, 1.0)
    }

    #[test]
    fn partitioned_matches_global() {
        let (nl, mut p1) = propagator(CHAIN);
        let mut p2 = p1.clone();
        let values = default_values(&p1);
        let out_part = relax_partitioned(&mut p1, &values, 20, 1, None, &Collector::disabled());
        let out_glob = solve_global(&mut p2, &values, &Collector::disabled());
        assert!(out_part.converged);
        assert!(out_glob.converged);
        for id in nl.nodes() {
            let i = id.index();
            let a = p1.arena.eval(p1.fwd[i], &values);
            let b = p2.arena.eval(p2.fwd[i], &values);
            assert!((a - b).abs() < 1e-12, "fwd mismatch at {}", nl.name(id));
            let a = p1.arena.eval(p1.bwd[i], &values);
            let b = p2.arena.eval(p2.bwd[i], &values);
            assert!((a - b).abs() < 1e-12, "bwd mismatch at {}", nl.name(id));
        }
    }

    #[test]
    fn incremental_is_bit_identical_to_full_sweeps() {
        for text in [CHAIN, FANOUT] {
            for threads in [1usize, 2, 8] {
                let (_, p0) = propagator(text);
                let values = default_values(&p0);
                let mut p_full = p0.clone();
                let mut p_inc = p0.clone();
                // Unclamped, so the sharded parallel path actually runs on
                // these tiny designs despite the small-design clamp.
                let full = relax_partitioned_inner(
                    &mut p_full,
                    &values,
                    20,
                    threads,
                    threads,
                    false,
                    None,
                    &Collector::disabled(),
                );
                let inc = relax_partitioned_exact(
                    &mut p_inc,
                    &values,
                    20,
                    threads,
                    None,
                    &Collector::disabled(),
                );
                // Identical annotations, SetId numbering, arena contents,
                // iteration counts, and per-sweep change telemetry.
                assert_eq!(p_full.fwd, p_inc.fwd, "threads={threads}");
                assert_eq!(p_full.bwd, p_inc.bwd, "threads={threads}");
                assert_eq!(p_full.arena.len(), p_inc.arena.len(), "threads={threads}");
                assert_eq!(full.iterations, inc.iterations);
                assert_eq!(full.converged, inc.converged);
                assert_eq!(full.trace.len(), inc.trace.len());
                for (a, b) in full.trace.iter().zip(&inc.trace) {
                    assert_eq!(a.changed_sets, b.changed_sets);
                    assert_eq!(a.max_delta, b.max_delta);
                    assert_eq!(a.fub_seq_mean, b.fub_seq_mean);
                }
                // The incremental run did strictly less sweep work.
                assert!(inc.total_walked_nodes() <= full.total_walked_nodes());
            }
        }
    }

    #[test]
    fn incremental_skips_clean_fubs() {
        let (nl, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        assert!(out.converged);
        // The first sweep floods everything…
        assert_eq!(out.trace[0].dirty_fubs, nl.fub_count());
        assert_eq!(out.trace[0].skipped_fubs, 0);
        // …and at least one later sweep skips FUBs whose boundary reads
        // were clean.
        assert!(out.trace[1..].iter().any(|s| s.skipped_fubs > 0));
        // The verification sweep observes an already-converged dirty set.
        let last = out.trace.last().unwrap();
        assert_eq!(last.changed_sets, 0);
    }

    #[test]
    fn single_fub_perturbation_marks_exactly_dependent_fubs() {
        let (nl, mut p) = propagator(FANOUT);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        assert!(out.converged);
        let boundary = &p.prep.boundary;
        let fub = |name: &str| nl.fub(nl.lookup(name).unwrap());
        // The isolated FUB `d` neither exposes nor consumes boundary
        // values.
        for k in 0..boundary.fwd_reads.len() {
            assert_ne!(nl.fub(boundary.fwd_reads[k]), fub("d.u"));
            assert!(!boundary.fwd_consumers_of(k).contains(&fub("d.u")));
        }
        for k in 0..boundary.bwd_reads.len() {
            assert_ne!(nl.fub(boundary.bwd_reads[k]), fub("d.u"));
            assert!(!boundary.bwd_consumers_of(k).contains(&fub("d.u")));
        }
        // Take converged sparse snapshots: diffing marks nothing dirty.
        let mut snap_f: Vec<SetId> = boundary
            .fwd_reads
            .iter()
            .map(|n| p.fwd[n.index()])
            .collect();
        let mut snap_b: Vec<SetId> = boundary
            .bwd_reads
            .iter()
            .map(|n| p.bwd[n.index()])
            .collect();
        let mut dirty = vec![false; nl.fub_count()];
        let mut maps = ChangedMaps {
            fwd: vec![false; nl.node_count()],
            bwd: vec![false; nl.node_count()],
        };
        mark_dirty(
            boundary,
            &p.fwd,
            &p.bwd,
            &mut snap_f,
            &mut snap_b,
            &mut maps,
            &mut dirty,
        );
        assert!(dirty.iter().all(|&d| !d), "converged state must be clean");
        assert!(maps.fwd.iter().chain(&maps.bwd).all(|&c| !c));
        // Perturb the forward annotation `a` exposes at `a.o`: exactly the
        // dependent FUBs `b` and `c` become dirty.
        let a_o = nl.lookup("a.o").unwrap();
        let k = boundary
            .fwd_reads
            .iter()
            .position(|&n| n == a_o)
            .expect("a.o is read across the partition");
        snap_f[k] = p.arena.top();
        assert_ne!(snap_f[k], p.fwd[a_o.index()]);
        mark_dirty(
            boundary,
            &p.fwd,
            &p.bwd,
            &mut snap_f,
            &mut snap_b,
            &mut maps,
            &mut dirty,
        );
        // The changed map flags exactly the perturbed boundary read.
        assert!(maps.fwd[a_o.index()]);
        assert_eq!(maps.fwd.iter().filter(|&&c| c).count(), 1);
        let dirty_fubs: Vec<usize> = dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            dirty_fubs,
            vec![fub("b.r").index(), fub("c.t").index()],
            "perturbing a.o must dirty exactly its consumers"
        );
    }

    #[test]
    fn chain_needs_multiple_iterations() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        assert!(out.converged);
        assert!(
            out.iterations >= 3,
            "a two-boundary crossing needs ≥3 iterations, got {}",
            out.iterations
        );
        // The verification sweep is traced but not counted.
        assert_eq!(out.trace.len(), out.iterations + 1);
    }

    #[test]
    fn iteration_cap_respected() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 1, 1, None, &Collector::disabled());
        assert_eq!(out.iterations, 1);
        assert!(!out.converged);
    }

    #[test]
    fn deltas_shrink_to_zero() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        let last = out.trace.last().unwrap();
        assert_eq!(last.changed_sets, 0);
        assert_eq!(last.max_delta, 0.0);
        // Change counts are non-increasing after the initial flood.
        let first = &out.trace[0];
        assert!(first.changed_sets > 0);
    }

    #[test]
    fn fub_means_tracked_per_iteration() {
        let (nl, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned(&mut p, &values, 20, 1, None, &Collector::disabled());
        for s in &out.trace {
            assert_eq!(s.fub_seq_mean.len(), nl.fub_count());
            for &m in &s.fub_seq_mean {
                assert!((0.0..=1.0).contains(&m));
            }
        }
    }

    #[test]
    fn thread_counts_are_bit_identical() {
        for incremental in [false, true] {
            let (_, p0) = propagator(CHAIN);
            let values = default_values(&p0);
            let mut runs = Vec::new();
            for threads in [1usize, 2, 3, 8] {
                let mut p = p0.clone();
                // Unclamped, so the multi-thread variants genuinely shard:
                // the clamped entry point would run CHAIN sequentially.
                let out = relax_partitioned_inner(
                    &mut p,
                    &values,
                    20,
                    threads,
                    threads,
                    incremental,
                    None,
                    &Collector::disabled(),
                );
                assert!(out.converged, "threads={threads}");
                runs.push((threads, p, out));
            }
            let (_, base, base_out) = &runs[0];
            for (threads, p, out) in &runs[1..] {
                // Identical SetId annotations, arena contents, and telemetry
                // counters — the sharded engine is deterministic in the thread
                // count by construction.
                assert_eq!(&base.fwd, &p.fwd, "fwd SetIds differ at threads={threads}");
                assert_eq!(&base.bwd, &p.bwd, "bwd SetIds differ at threads={threads}");
                assert_eq!(base.arena.len(), p.arena.len(), "threads={threads}");
                assert_eq!(base_out.iterations, out.iterations);
                for (a, b) in base_out.trace.iter().zip(&out.trace) {
                    assert_eq!(a.changed_sets, b.changed_sets);
                    assert_eq!(a.max_delta, b.max_delta);
                    assert_eq!(a.fub_seq_mean, b.fub_seq_mean);
                    assert_eq!(a.dirty_fubs, b.dirty_fubs);
                    assert_eq!(a.walked_nodes, b.walked_nodes);
                }
            }
        }
    }

    #[test]
    fn lpt_balances_loads() {
        let (nl, p) = propagator(CHAIN);
        let fubs: Vec<FubId> = nl.fub_ids().collect();
        let parts = lpt_partition(&fubs, &p.prep.fub_topo, 2);
        // Every FUB appears exactly once across the groups.
        let mut seen: Vec<FubId> = parts.iter().flatten().copied().collect();
        seen.sort_by_key(|f| f.index());
        assert_eq!(seen, fubs);
        // No group holds everything when more than one worker is asked for.
        assert!(parts.len() > 1);
        assert!(parts.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn small_designs_clamp_to_sequential_and_record_the_decision() {
        let (nl, p0) = propagator(CHAIN);
        assert!(nl.node_count() < RELAX_PARALLEL_WORK_THRESHOLD);
        let values = default_values(&p0);
        // The clamped entry point drops to 1 worker below the crossover…
        let mut p = p0.clone();
        let clamped = relax_partitioned(&mut p, &values, 20, 8, None, &Collector::disabled());
        assert!(clamped.trace.iter().all(|s| s.effective_threads == 1));
        // …the exact variant honors the request…
        let mut p_exact = p0.clone();
        let exact =
            relax_partitioned_exact(&mut p_exact, &values, 20, 8, None, &Collector::disabled());
        assert!(exact.trace.iter().all(|s| s.effective_threads == 8));
        // …and both produce bit-identical annotations and telemetry.
        assert_eq!(p.fwd, p_exact.fwd);
        assert_eq!(p.bwd, p_exact.bwd);
        assert_eq!(p.arena.len(), p_exact.arena.len());
        assert_eq!(clamped.iterations, exact.iterations);
        // Sequential requests pass through the clamp untouched.
        let mut p1 = p0.clone();
        let seq = relax_partitioned(&mut p1, &values, 20, 1, None, &Collector::disabled());
        assert!(seq.trace.iter().all(|s| s.effective_threads == 1));
    }

    #[test]
    fn clamp_decision_lands_in_the_sweep_trace() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let obs = Collector::new();
        relax_partitioned(&mut p, &values, 20, 8, None, &obs);
        let spans = obs.spans();
        let sweeps: Vec<_> = spans.iter().filter(|s| s.name == "relax.sweep").collect();
        assert!(!sweeps.is_empty());
        for s in sweeps {
            let field = |key: &str| {
                s.fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .unwrap_or_else(|| panic!("missing field {key}"))
                    .1
                    .clone()
            };
            assert_eq!(field("threads"), FieldValue::U64(1));
            assert_eq!(field("requested_threads"), FieldValue::U64(8));
        }
    }

    #[test]
    fn wall_time_is_recorded_per_iteration() {
        let (_, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = relax_partitioned_exact(&mut p, &values, 20, 2, None, &Collector::disabled());
        assert!(!out.trace.is_empty());
        for s in &out.trace {
            assert!(s.wall_seconds >= 0.0);
        }
        let total = out.total_wall_seconds();
        assert!(total >= 0.0);
        assert!(out.mean_iteration_seconds() <= total + 1e-15);
    }

    #[test]
    fn global_telemetry_is_honest() {
        let (nl, mut p) = propagator(CHAIN);
        let values = default_values(&p);
        let out = solve_global(&mut p, &values, &Collector::disabled());
        // The first sweep moves annotations off the conservative TOP; the
        // second verifies the fixpoint rather than assuming it.
        assert_eq!(out.trace.len(), 2);
        assert!(out.trace[0].changed_sets > 0);
        assert_eq!(out.trace.last().unwrap().changed_sets, 0);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        for s in &out.trace {
            assert_eq!(s.dirty_fubs, nl.fub_count());
            assert_eq!(s.skipped_fubs, 0);
            assert_eq!(s.walked_nodes, nl.node_count());
        }
    }
}
