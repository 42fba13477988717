//! The correctness gate: answers computed in this process, without any
//! view, that the server's replies are compared with.

use crate::workload::{Fnv, Workload};
use std::collections::BTreeSet;
use subq_dl::QueryClassDecl;
use subq_oodb::{evaluate_query, Database, ObjId, OptimizedDatabase, Reader};
use subq_server::TxnOp;

/// The server's `apply_op` (private to its writer), by name and with
/// objects created on demand.
pub fn apply_op(db: &mut Database, op: &TxnOp) {
    match op {
        TxnOp::Add { object } => {
            db.add_object(object);
        }
        TxnOp::Class {
            assert,
            object,
            class,
        } => {
            let id = db.add_object(object);
            if *assert {
                db.assert_class(id, class);
            } else {
                db.retract_class(id, class);
            }
        }
        TxnOp::Attr {
            assert,
            from,
            attr,
            to,
        } => {
            let (from, to) = (db.add_object(from), db.add_object(to));
            if *assert {
                db.assert_attr(from, attr, to);
            } else {
                db.retract_attr(from, attr, to);
            }
        }
    }
}

/// The loaded state of a workload as a plain database.
pub fn loaded_database(workload: &Workload) -> Database {
    let mut db = Database::new(workload.model.clone());
    for op in workload.load.iter().flatten() {
        apply_op(&mut db, op);
    }
    db
}

/// What an `ANSWERS` reply must contain: the number of names and the
/// FNV-1a of the reply body (`name\n` per answer, in object-id order —
/// the order the server renders, which is creation order and therefore
/// the same here as there).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub count: usize,
    pub hash: u64,
}

pub fn digest(db: &Database, answers: &BTreeSet<ObjId>) -> Expected {
    let mut h = Fnv::default();
    for id in answers {
        h.write(db.object_name(*id).as_bytes());
        h.write(b"\n");
    }
    Expected {
        count: answers.len(),
        hash: h.0,
    }
}

/// Evaluates queries on the loaded state with no view in sight.
pub struct Oracle {
    reader: Reader,
}

impl Oracle {
    pub fn build(workload: &Workload) -> Oracle {
        let odb = OptimizedDatabase::new(loaded_database(workload))
            .expect("the generated model translates");
        Oracle {
            reader: odb.reader(),
        }
    }

    pub fn expected(&self, query: &QueryClassDecl) -> Expected {
        let (answers, _) = self.reader.execute_unoptimized(query);
        digest(self.reader.database(), &answers)
    }
}

/// The extent of every view after `acked` (transactions in commit
/// order) on top of the load, evaluated from scratch.
pub fn scratch_extents(workload: &Workload, acked: &[Vec<TxnOp>]) -> Vec<BTreeSet<String>> {
    let mut db = loaded_database(workload);
    for op in acked.iter().flatten() {
        apply_op(&mut db, op);
    }
    workload
        .views
        .iter()
        .map(|name| {
            let definition = workload.model.query_class(name).expect("declared");
            evaluate_query(&db, definition)
                .iter()
                .map(|id| db.object_name(*id).to_owned())
                .collect()
        })
        .collect()
}
