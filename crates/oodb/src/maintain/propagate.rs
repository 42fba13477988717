//! Delta propagation: refresh only affected views, and only affected
//! objects, exploiting the subsumption lattice top-down.
//!
//! # Candidate computation
//!
//! For every delta the propagator derives, per affected view (found
//! through the [`DependencyIndex`]), a *candidate set* — a superset of
//! the objects whose membership in that view may have changed:
//!
//! * `AddObject` — the new object, for views whose candidate set is all
//!   objects (`unrestricted`); volatile views (see below) are also
//!   touched, because a constraint clause can reference the new object
//!   *by name* and creation changes that resolution;
//! * `AssertClass` / `RetractClass` on `o` — the ball of radius
//!   `max_path_len` around `o`: the class may be a path filter up to
//!   `max_path_len` steps away from the source object (radius 0 when the
//!   view has no derived paths — then only `o` itself is affected);
//! * `AssertAttr` / `RetractAttr` on `(from, to)` — the ball of radius
//!   `max_path_len − 1` around both endpoints.
//!
//! Balls are breadth-first walks over the *current* state, treating every
//! attribute the view mentions as an undirected edge (paths may traverse
//! an attribute through its inverse synonym). This over-approximates but
//! never misses: an affected source object reaches the changed element
//! along its derived path; take the path's first edge changed within the
//! replayed window — every edge between the source and it is unchanged,
//! hence present in the current state and walkable backwards, and the
//! changed edge's own delta seeds the ball at its endpoints. Candidates
//! are then decided by re-running the ordinary membership check, so
//! over-approximation costs evaluations, never correctness.
//!
//! # Lattice pruning
//!
//! Views are refreshed in topological order of the catalog's subsumption
//! lattice, roots first. Σ-subsumption is sound (Proposition 3.1):
//! `C ⊑ P` implies `extent(C) ⊆ extent(P)` in every state, so a candidate
//! absent from a refreshed parent's extension is removed from the child
//! *without evaluating its membership condition*, and the saving repeats
//! down the whole sub-DAG. Σ-equivalent peers settle each of their
//! candidates from their representative's (already refreshed) extension —
//! mutual subsumption makes the representative's verdict theirs.
//!
//! # Fallbacks
//!
//! A view falls back to full re-evaluation (the [`refresh_full`] oracle
//! semantics) when its snapshot predates the log's truncation point or
//! when its recursive definition reaches a constraint clause (`volatile`
//! in the [`DependencyIndex`]) and a dependent symbol was touched — a
//! quantified constraint can flip the membership of objects arbitrarily
//! far from the delta.
//!
//! # One pass, one thread
//!
//! Candidate re-checks only ever consult a view's Hasse *ancestors*
//! (pruning) or its Σ-equivalence representative, and both precede the
//! view in the lattice order, so a single walk over that order on the
//! writer's thread refreshes the whole catalog. Independent lattice
//! components could be handed to worker threads, but spawning costs more
//! than the 4–8-op transactions a server commits have to share out, and a
//! single-rooted catalog has nothing to share (table in CHANGES.md,
//! PR 17). The writer then publishes the refreshed state as one atomic
//! snapshot swap (see
//! [`OptimizedDatabase::commit_durable`](crate::OptimizedDatabase::commit_durable)).
//!
//! [`refresh_full`]: crate::views::ViewCatalog::refresh_full

use super::delta::Delta;
use super::depindex::{DependencyIndex, ViewDeps};
use crate::eval::{filter_members, initial_candidates, is_member};
use crate::store::{Database, ObjId};
use crate::views::MaterializedView;
use fxhash::FxHashSet;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Counters of the incremental maintainer (cumulative per catalog).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Log entries scanned by refresh passes.
    pub deltas_applied: u64,
    /// Candidate objects examined (per view; includes pruned ones).
    pub candidates_examined: u64,
    /// Membership conditions actually evaluated.
    pub memberships_evaluated: u64,
    /// Evaluations avoided by the lattice: candidates discarded because a
    /// parent view's refreshed extension already excluded them, plus
    /// candidates of Σ-equivalence peers (they copy the representative).
    pub lattice_prunes: u64,
    /// Views that fell back to full re-evaluation (volatile definitions,
    /// truncated logs, forced invalidation).
    pub full_reevaluations: u64,
    /// Refresh passes that returned without touching any view state
    /// because the log suffix routed zero views (see
    /// [`routes_nothing`] and
    /// [`ViewCatalog::refresh`](crate::views::ViewCatalog::refresh)).
    pub empty_refreshes: u64,
}

/// How one view is brought up to date by the current pass.
enum Plan {
    /// Already fresh — nothing to do.
    Fresh,
    /// Re-evaluate from scratch.
    Full,
    /// Re-check exactly these objects.
    Candidates(BTreeSet<ObjId>),
}

/// Brings every view up to `db.data_version()`, consuming the delta log.
/// `index` must describe `views` in catalog order (same length).
pub fn refresh_views(
    db: &Database,
    views: &mut [MaterializedView],
    index: &DependencyIndex,
    stats: &mut MaintenanceStats,
) {
    debug_assert_eq!(index.len(), views.len());
    let now = db.data_version();
    let base = db.delta_log().base_version();
    let mut plans: Vec<Plan> = views
        .iter()
        .map(|view| {
            if view.force_refresh {
                // Invalidation the log cannot express (schema mutation).
                Plan::Full
            } else if view.fresh_as_of >= now {
                Plan::Fresh
            } else if view.fresh_as_of < base {
                // The log no longer reaches back to this snapshot.
                Plan::Full
            } else {
                Plan::Candidates(BTreeSet::new())
            }
        })
        .collect();

    // Scan the log once, from the oldest replayable snapshot, routing each
    // delta to the views whose dependencies it touches.
    let min_snapshot = views
        .iter()
        .zip(&plans)
        .filter(|(_, plan)| matches!(plan, Plan::Candidates(_)))
        .map(|(view, _)| view.fresh_as_of)
        .min();
    if let Some(min_snapshot) = min_snapshot {
        let replay = db
            .delta_log()
            .since(min_snapshot)
            .expect("snapshots below the log base were planned as Full");
        for (version, delta) in replay {
            stats.deltas_applied += 1;
            let (affected, also) = affected_views(index, delta);
            let seeds: Vec<ObjId> = match delta {
                Delta::AddObject { object } => vec![*object],
                Delta::AssertClass { object, .. } | Delta::RetractClass { object, .. } => {
                    vec![*object]
                }
                Delta::AssertAttr { from, to, .. } | Delta::RetractAttr { from, to, .. } => {
                    vec![*from, *to]
                }
            };
            let radius_for = |deps: &ViewDeps| match delta {
                Delta::AddObject { .. } => 0,
                Delta::AssertClass { .. } | Delta::RetractClass { .. } => deps.max_path_len,
                Delta::AssertAttr { .. } | Delta::RetractAttr { .. } => {
                    deps.max_path_len.saturating_sub(1)
                }
            };
            for &i in affected.iter().chain(also) {
                if views[i].fresh_as_of >= version {
                    continue; // This view's snapshot already includes the delta.
                }
                let deps = index.deps(i);
                match &mut plans[i] {
                    Plan::Candidates(_) if deps.volatile => plans[i] = Plan::Full,
                    Plan::Candidates(candidates) => {
                        let radius = radius_for(deps);
                        if radius == 0 {
                            candidates.extend(seeds.iter().copied());
                        } else {
                            candidate_ball(db, deps, &seeds, radius, candidates);
                        }
                    }
                    Plan::Fresh | Plan::Full => {}
                }
            }
        }
    }

    // Refresh in lattice order: representatives root-down (so parent
    // extensions are current when a child consults them for pruning),
    // then equivalence peers (after their representatives), then
    // unclassified views.
    for i in lattice_order(views) {
        match std::mem::replace(&mut plans[i], Plan::Fresh) {
            Plan::Fresh => {}
            Plan::Full => {
                stats.full_reevaluations += 1;
                let candidates = initial_candidates(db, &views[i].definition);
                stats.candidates_examined += candidates.len() as u64;
                stats.memberships_evaluated += candidates.len() as u64;
                views[i].extent = Arc::new(filter_members(db, &views[i].definition, &candidates));
            }
            Plan::Candidates(candidates) => {
                crate::metrics::metrics()
                    .maintenance_candidates
                    .record(candidates.len() as u64);
                if let Some(rep) = views[i].equiv {
                    // Σ-equivalent peers share the representative's
                    // extension in every state, so the representative's
                    // (already refreshed) verdict decides each candidate
                    // without evaluation — and without unsharing the
                    // peer's extension when nothing actually changed.
                    stats.candidates_examined += candidates.len() as u64;
                    stats.lattice_prunes += candidates.len() as u64;
                    for object in candidates {
                        let member = views[rep].extent.contains(&object);
                        apply_verdict(&mut views[i], object, member);
                    }
                } else {
                    for object in candidates {
                        stats.candidates_examined += 1;
                        let view = &views[i];
                        let pruned = view
                            .parents
                            .iter()
                            .any(|&p| !views[p].extent.contains(&object));
                        let member = if pruned {
                            stats.lattice_prunes += 1;
                            false
                        } else {
                            stats.memberships_evaluated += 1;
                            is_member(db, &view.definition, object)
                        };
                        apply_verdict(&mut views[i], object, member);
                    }
                }
            }
        }
        views[i].fresh_as_of = now;
        views[i].force_refresh = false;
    }
}

/// Applies one membership verdict to a view's extension, unsharing the
/// copy-on-write set only when the verdict actually changes it.
fn apply_verdict(view: &mut MaterializedView, object: ObjId, member: bool) {
    if member != view.extent.contains(&object) {
        let extent = Arc::make_mut(&mut view.extent);
        if member {
            extent.insert(object);
        } else {
            extent.remove(&object);
        }
    }
}

/// The views a delta can possibly affect: the dependency-index lookup
/// shared by the propagator's routing loop and the empty-refresh pre-scan
/// ([`routes_nothing`]). `AddObject` additionally reaches every volatile
/// view: constraints may resolve objects by name, and creation changes
/// that resolution even before any class or attribute is asserted.
fn affected_views<'a>(index: &'a DependencyIndex, delta: &Delta) -> (&'a [usize], &'a [usize]) {
    let empty: &[usize] = &[];
    match delta {
        Delta::AddObject { .. } => (index.unrestricted_views(), index.volatile_views()),
        Delta::AssertClass { class, .. } | Delta::RetractClass { class, .. } => {
            (index.views_on_class(class), empty)
        }
        Delta::AssertAttr { attribute, .. } | Delta::RetractAttr { attribute, .. } => {
            (index.views_on_attr(attribute), empty)
        }
    }
}

/// Whether the unseen suffix of the delta log routes **zero** stale views
/// through the dependency index — the condition under which
/// [`ViewCatalog::refresh`](crate::views::ViewCatalog::refresh) returns
/// without touching any view state (no write lock, no allocation beyond
/// this scan). `false` as soon as any stale view needs work: a routed
/// delta, a snapshot beyond the log's reach, or a forced refresh (which
/// the caller checks).
pub fn routes_nothing(db: &Database, views: &[MaterializedView], index: &DependencyIndex) -> bool {
    debug_assert_eq!(index.len(), views.len());
    let now = db.data_version();
    let base = db.delta_log().base_version();
    let mut min_snapshot = now;
    for view in views {
        if view.fresh_as_of >= now {
            continue;
        }
        if view.fresh_as_of < base {
            return false; // Needs a full re-evaluation: the log is gone.
        }
        min_snapshot = min_snapshot.min(view.fresh_as_of);
    }
    if min_snapshot >= now {
        return true;
    }
    let Some(replay) = db.delta_log().since(min_snapshot) else {
        return false;
    };
    for (version, delta) in replay {
        let (affected, also) = affected_views(index, delta);
        for &i in affected.iter().chain(also) {
            if views[i].fresh_as_of < version {
                return false;
            }
        }
    }
    true
}

/// The processing order: classified representatives in topological order
/// (roots first — [`crate::views::representative_topo_order`]), then
/// equivalence peers, then unclassified views.
fn lattice_order(views: &[MaterializedView]) -> Vec<usize> {
    let n = views.len();
    let (mut order, reps) = crate::views::representative_topo_order(views);
    debug_assert_eq!(order.len(), reps, "lattice must be acyclic");
    // Peers after their representatives, then views outside the lattice.
    order.extend((0..n).filter(|&i| views[i].classified && views[i].equiv.is_some()));
    order.extend((0..n).filter(|&i| !views[i].classified));
    debug_assert_eq!(order.len(), n, "every view must be processed");
    order
}

/// Collects into `out` every object within `radius` undirected steps of
/// the seeds, walking only the attributes the view mentions.
fn candidate_ball(
    db: &Database,
    deps: &ViewDeps,
    seeds: &[ObjId],
    radius: usize,
    out: &mut BTreeSet<ObjId>,
) {
    let mut visited: FxHashSet<ObjId> = seeds.iter().copied().collect();
    let mut frontier: Vec<ObjId> = seeds.to_vec();
    for _ in 0..radius {
        let mut next = Vec::new();
        for &object in &frontier {
            for attribute in &deps.attributes {
                for neighbors in [
                    db.attr_in(object, attribute),
                    db.attr_out(object, attribute),
                ]
                .into_iter()
                .flatten()
                {
                    for neighbor in neighbors {
                        if visited.insert(neighbor) {
                            next.push(neighbor);
                        }
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    out.extend(visited);
}
