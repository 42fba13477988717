//! The four workloads: schema, view catalog, bulk load and request
//! streams, all derived from the seed and nothing else.
//!
//! Every instance is a binary isA tree of classes `C0..`, two global
//! attributes (`link`/`rev_link`, `ref`/`rev_ref`), a catalog of views
//! (class views `isA Ck` first, then views strengthened by a one- or
//! two-step filtered path) and `objects` objects, each asserted into one
//! random class with random outgoing edges. What differs between the
//! workloads is the size and what the requests ask for — see
//! [`SPECS`] for the reason each one exists.
//!
//! A request is a pure function of `(seed, phase, connection, index)`:
//! the stream does not depend on how fast the server answers, so every
//! instance of a run (and the in-process replay) sees the same requests.

use subq_dl::{AttrDecl, ClassDecl, DlModel, LabeledPath, PathFilter, PathStep, QueryClassDecl};
use subq_server::{Request, TxnOp};

/// SplitMix64. Local on purpose: the workload must not change when the
/// repository's `rand` stand-in does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator keyed by several coordinates (counter-based use).
    pub fn keyed(parts: &[u64]) -> Rng {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for part in parts {
            state = Rng(state ^ part).next().rotate_left(17);
        }
        Rng(state)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }

    pub fn percent(&mut self, p: u64) -> bool {
        self.below(100) < p
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a, the request-stream fingerprint.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 = (self.0 ^ *byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

/// What the measured requests of a workload are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A small pool of repeated query shapes, each subsumed by a small
    /// class view.
    Hot,
    /// Structurally never-repeated queries against a large lattice.
    Fresh,
    /// Queries over populous classes that no view subsumes.
    Scan,
    /// Hot queries interleaved with write transactions on the same
    /// sessions.
    Mixed,
}

/// The fixed parameters of one workload. Paced rates are constants — they
/// are never derived from a measurement at run time.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub objects: usize,
    pub classes: usize,
    pub views: usize,
    /// Percent of the views beyond the class views that carry a filtered
    /// path (the rest intersect two classes).
    pub path_view_percent: u64,
    /// Open-loop rate of the paced phase, requests per second over all
    /// connections.
    pub paced_rate: u64,
    /// Size of the repeated query pool (`Hot`, `Scan`, `Mixed`).
    pub pool: usize,
    /// Percent of requests that are transactions (`Mixed`).
    pub txn_percent: u64,
    /// Closed-loop warm-up requests per connection before the first
    /// verified reply ends set-up.
    pub warmup: u64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "read_hot",
        why: "16 repeated shapes through small class views, paced 3000/s: calculus, eval and durable idle, so frame, proto, session, worker nap and sockets are what is timed; a planner change must show nothing",
        kind: Kind::Hot,
        objects: 8_000,
        classes: 63,
        views: 80,
        path_view_percent: 20,
        paced_rate: 3_000,
        pool: 16,
        txn_percent: 0,
        warmup: 200,
    },
    Spec {
        name: "read_fresh",
        why: "never-repeated shapes against a 240-view lattice, paced 400/s: working set beyond every memo, so fact saturation, goal probes and Hasse traversal dominate",
        kind: Kind::Fresh,
        objects: 8_000,
        classes: 63,
        views: 240,
        path_view_percent: 70,
        paced_rate: 400,
        pool: 0,
        txn_percent: 0,
        warmup: 200,
    },
    Spec {
        name: "read_scan",
        why: "32k objects, queries no view subsumes over populous classes, ~2700 answers a reply, paced 120/s: eval, objset, store and reply rendering dominate, calculus idle",
        kind: Kind::Scan,
        objects: 32_000,
        classes: 7,
        views: 8,
        path_view_percent: 100,
        paced_rate: 120,
        pool: 8,
        txn_percent: 0,
        warmup: 20,
    },
    Spec {
        name: "mixed_rw",
        why: "70% hot queries + 30% TXN (4-8 ops, 40% retractions) on the same two sessions over 340 views, paced 250/s: publication against reader sync plus the whole durable write path",
        kind: Kind::Mixed,
        objects: 8_000,
        classes: 63,
        views: 340,
        path_view_percent: 40,
        paced_rate: 250,
        pool: 16,
        txn_percent: 30,
        warmup: 100,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Ops per bulk-load `TXN` frame (the protocol's cap).
pub const LOAD_FRAME_OPS: usize = 4096;

/// The phases of a server instance's life; each draws from its own index
/// range so no request repeats within one instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Paced,
    Capacity,
    /// The traced pass's second capacity phase (spans on).
    Traced,
}

impl Phase {
    fn base(self) -> u64 {
        match self {
            Phase::Warmup => 0,
            Phase::Paced => 1 << 24,
            Phase::Capacity => 1 << 28,
            Phase::Traced => 1 << 30,
        }
    }
}

const ATTRS: [&str; 4] = ["link", "rev_link", "ref", "rev_ref"];

/// A generated workload instance.
pub struct Workload {
    pub spec: &'static Spec,
    pub seed: u64,
    pub model: DlModel,
    /// Views to `MATERIALIZE`, in order (all declared in `model`).
    pub views: Vec<String>,
    /// The bulk load, in `TXN` frames of at most [`LOAD_FRAME_OPS`] ops.
    pub load: Vec<Vec<TxnOp>>,
    /// The repeated query pool (empty for `Fresh`).
    pub pool: Vec<QueryClassDecl>,
}

fn class_name(i: usize) -> String {
    format!("C{i}")
}

fn object_name(i: u64) -> String {
    format!("o{i}")
}

fn step(attr: &str, filter: PathFilter) -> PathStep {
    PathStep {
        attr: attr.to_owned(),
        filter,
    }
}

fn query(name: String, is_a: Vec<String>, paths: Vec<Vec<PathStep>>) -> QueryClassDecl {
    QueryClassDecl {
        name,
        is_a,
        derived: paths
            .into_iter()
            .map(|steps| LabeledPath { label: None, steps })
            .collect(),
        where_eqs: vec![],
        constraint: None,
    }
}

impl Workload {
    pub fn generate(spec: &'static Spec, seed: u64) -> Workload {
        let mut rng = Rng::keyed(&[seed, 1]);
        let classes = spec.classes;
        let mut model = DlModel::new();
        for i in 0..classes {
            model.classes.push(ClassDecl {
                name: class_name(i),
                is_a: if i == 0 {
                    vec![]
                } else {
                    vec![class_name((i - 1) / 2)]
                },
                attributes: vec![],
                constraint: None,
            });
        }
        for pair in ATTRS.chunks(2) {
            model.attributes.push(AttrDecl {
                name: pair[0].into(),
                domain: "Object".into(),
                range: "Object".into(),
                inverse: Some(pair[1].into()),
            });
        }

        // Views. The catalog is the same under every seed (its own fixed
        // generator): the seed moves data and requests, not the lattice a
        // planner change would be judged on. `Scan` gets only path views
        // over the `ref` attribute, so that no view subsumes its `link`
        // queries; everyone else gets a class view per class first (every
        // query is then subsumed by at least its own class's view) and
        // filtered-path views after.
        let mut catalog = Rng::keyed(&[0x0CA7_A106, spec.views as u64]);
        let mut views = Vec::new();
        for v in 0..spec.views {
            let rng = &mut catalog;
            let name = format!("V{v}");
            let class_view = spec.kind != Kind::Scan && v < classes;
            let decl = if class_view {
                query(name.clone(), vec![class_name(v)], vec![])
            } else if spec.kind == Kind::Scan || rng.percent(spec.path_view_percent) {
                let class = class_name(rng.below(classes as u64) as usize);
                let target = PathFilter::Class(class_name(rng.below(classes as u64) as usize));
                let attr = if spec.kind == Kind::Scan {
                    ATTRS[2 + rng.below(2) as usize]
                } else {
                    ATTRS[rng.below(4) as usize]
                };
                let steps = if rng.percent(50) {
                    vec![step(attr, PathFilter::Any), step("ref", target)]
                } else {
                    vec![step(attr, target)]
                };
                query(name.clone(), vec![class], vec![steps])
            } else {
                // An intersection of two classes: subsumption at the
                // concept level, not just along the isA graph.
                let a = class_name(rng.below(classes as u64) as usize);
                let b = class_name(rng.below(classes as u64) as usize);
                query(name.clone(), vec![a, b], vec![])
            };
            views.push(name);
            model.queries.push(decl);
        }

        // Bulk load: the classes get equal shares of the objects (a
        // shuffled deck, not a draw per object — a seed moves objects
        // around, it does not make a class bigger), with random edges.
        let n = spec.objects as u64;
        let mut deck: Vec<usize> = (0..spec.objects).map(|i| i % classes).collect();
        rng.shuffle(&mut deck);
        let mut ops = Vec::new();
        for (i, class) in deck.into_iter().enumerate() {
            ops.push(TxnOp::Class {
                assert: true,
                object: object_name(i as u64),
                class: class_name(class),
            });
        }
        for i in 0..n {
            if rng.percent(60) {
                ops.push(TxnOp::Attr {
                    assert: true,
                    from: object_name(i),
                    attr: "link".into(),
                    to: object_name(rng.below(n)),
                });
            }
            if rng.percent(40) {
                ops.push(TxnOp::Attr {
                    assert: true,
                    from: object_name(i),
                    attr: "ref".into(),
                    to: object_name(rng.below(n)),
                });
            }
        }
        let load = ops.chunks(LOAD_FRAME_OPS).map(<[TxnOp]>::to_vec).collect();

        // The repeated pool: structurally distinct shapes of equal cost,
        // so a latency percentile does not sit between two modes. Which
        // leaves are asked about is the seed's choice.
        let mut leaves: Vec<usize> = (classes / 2..classes).collect();
        rng.shuffle(&mut leaves);
        let mut pool = Vec::new();
        for q in 0..spec.pool {
            let leaf = leaves[q % leaves.len()];
            let decl = match spec.kind {
                // A populous leaf (once plain, once doubled by its
                // parent), unfiltered `link`: thousands of answers, and
                // no `ref`-path view subsumes it.
                Kind::Scan => {
                    let mut is_a = vec![class_name(leaf)];
                    if q >= leaves.len() {
                        is_a.push(class_name((leaf - 1) / 2));
                    }
                    query(
                        format!("S{q}"),
                        is_a,
                        vec![vec![step("link", PathFilter::Any)]],
                    )
                }
                // A small leaf narrowed by one `link` step into a quarter
                // of the population: a few answers out of the leaf's
                // class view.
                _ => {
                    let target = PathFilter::Class(class_name(3 + q % 4));
                    query(
                        format!("H{q}"),
                        vec![class_name(leaf)],
                        vec![vec![step("link", target)]],
                    )
                }
            };
            pool.push(decl);
        }

        Workload {
            spec,
            seed,
            model,
            views,
            load,
            pool,
        }
    }

    /// The never-repeated query with this shape index: a class four or
    /// more levels down the tree, half the time doubled by one of its
    /// ancestors, narrowed by a two-step filtered path and half the time
    /// by a second one. The rarest-varied form alone spans some 400k
    /// structures, so under one in a hundred of a run's queries meets a
    /// shape again — `calculus.cache_hit_ratio` reports how many did.
    pub fn fresh_query(&self, index: u64) -> QueryClassDecl {
        let mut rng = Rng::keyed(&[self.seed, 3, index]);
        let classes = self.spec.classes as u64;
        let filter = |rng: &mut Rng, nodes: u64| {
            if rng.percent(10) {
                PathFilter::Any
            } else {
                PathFilter::Class(class_name(rng.below(nodes.min(classes)) as usize))
            }
        };
        let attr = |rng: &mut Rng| ATTRS[rng.below(4) as usize];
        let class = 15 + rng.below(classes - 15) as usize;
        let mut is_a = vec![class_name(class)];
        if rng.percent(50) {
            let mut ancestor = (class - 1) / 2;
            for _ in 0..rng.below(3) {
                ancestor = ancestor.saturating_sub(1) / 2;
            }
            is_a.push(class_name(ancestor));
        }
        let mut paths = vec![vec![
            step(attr(&mut rng), filter(&mut rng, 31)),
            step(attr(&mut rng), filter(&mut rng, 15)),
        ]];
        if rng.percent(50) {
            paths.push(vec![step(attr(&mut rng), filter(&mut rng, 15))]);
        }
        query(format!("F{index}"), is_a, paths)
    }

    /// One transaction of the mixed stream: 4–8 ops over the loaded
    /// population, 40% of the mutations retractions, one op in ten a new
    /// object whose name is private to `(connection, index)` so the
    /// stream does not depend on how sessions interleave.
    fn txn(&self, rng: &mut Rng, conn: usize, index: u64) -> Vec<TxnOp> {
        let n = self.spec.objects as u64;
        let classes = self.spec.classes as u64;
        let count = 4 + rng.below(5);
        (0..count)
            .map(|k| {
                if rng.below(10) == 0 {
                    return TxnOp::Class {
                        assert: true,
                        object: format!("n{conn}_{index}_{k}"),
                        class: class_name(rng.below(classes) as usize),
                    };
                }
                let assert = !rng.percent(40);
                if rng.percent(60) {
                    TxnOp::Class {
                        assert,
                        object: object_name(rng.below(n)),
                        class: class_name(rng.below(classes) as usize),
                    }
                } else {
                    TxnOp::Attr {
                        assert,
                        from: object_name(rng.below(n)),
                        attr: ATTRS[2 * rng.below(2) as usize].into(),
                        to: object_name(rng.below(n)),
                    }
                }
            })
            .collect()
    }

    /// The request `index` of `phase` on connection `conn`.
    pub fn request(&self, phase: Phase, conn: usize, index: u64) -> Op {
        let mut rng = Rng::keyed(&[self.seed, 2, phase.base(), conn as u64, index]);
        // Warm-up walks the pool in order, so every repeated shape has
        // been planned once before anything is measured.
        let pooled = |rng: &mut Rng| {
            Op::Pool(if phase == Phase::Warmup {
                (index as usize + conn) % self.pool.len()
            } else {
                rng.below(self.pool.len() as u64) as usize
            })
        };
        match self.spec.kind {
            Kind::Fresh => Op::Fresh(phase.base() + index * 64 + conn as u64),
            Kind::Hot | Kind::Scan => pooled(&mut rng),
            Kind::Mixed => {
                if rng.percent(self.spec.txn_percent) {
                    Op::Txn(self.txn(&mut rng, conn, phase.base() + index))
                } else {
                    pooled(&mut rng)
                }
            }
        }
    }

    /// The wire request of an op.
    pub fn render(&self, op: &Op) -> Request {
        match op {
            Op::Pool(i) => Request::Query(self.pool[*i].clone()),
            Op::Fresh(i) => Request::Query(self.fresh_query(*i)),
            Op::Txn(ops) => Request::Txn(ops.clone()),
        }
    }

    /// Fingerprint of everything the server will be sent: the model, the
    /// load, and the head of every phase's stream on two connections.
    pub fn stream_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.write(subq_dl::pretty::render_model(&self.model).as_bytes());
        for frame in &self.load {
            h.write(Request::Txn(frame.clone()).render().as_bytes());
        }
        for phase in [Phase::Warmup, Phase::Paced, Phase::Capacity, Phase::Traced] {
            for conn in 0..2 {
                for index in 0..512 {
                    let op = self.request(phase, conn, index);
                    h.write(self.render(&op).render().as_bytes());
                }
            }
        }
        h.0
    }
}

/// One generated request, before rendering.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Query `i` of the repeated pool.
    Pool(usize),
    /// The never-repeated query with this shape index.
    Fresh(u64),
    Txn(Vec<TxnOp>),
}

impl Op {
    pub fn is_txn(&self) -> bool {
        matches!(self, Op::Txn(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for spec in &SPECS {
            let a = Workload::generate(spec, 7).stream_hash();
            let b = Workload::generate(spec, 7).stream_hash();
            let c = Workload::generate(spec, 8).stream_hash();
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn fresh_queries_do_not_repeat_and_round_trip_the_dl_parser() {
        let w = Workload::generate(spec("read_fresh").unwrap(), 3);
        let mut seen = HashSet::new();
        for index in 0..20_000u64 {
            let mut q = w.fresh_query(index);
            let text = subq_dl::pretty::render_query(&q);
            if index < 200 {
                assert_eq!(subq_dl::parse_query(&text).expect("parses"), q);
            }
            q.name.clear();
            seen.insert(subq_dl::pretty::render_query(&q));
        }
        assert!(seen.len() > 19_900, "only {} distinct shapes", seen.len());
    }

    #[test]
    fn load_frames_respect_the_protocol_cap_and_mixed_has_both_op_kinds() {
        let w = Workload::generate(spec("mixed_rw").unwrap(), 1);
        assert!(w.load.iter().all(|f| f.len() <= LOAD_FRAME_OPS));
        let ops: Vec<Op> = (0..1000).map(|i| w.request(Phase::Paced, 0, i)).collect();
        let txns = ops.iter().filter(|op| op.is_txn()).count();
        assert!((200..400).contains(&txns), "{txns} txns of 1000");
        for op in &ops {
            if let Op::Txn(t) = op {
                assert!((4..=8).contains(&t.len()));
            }
        }
    }
}
