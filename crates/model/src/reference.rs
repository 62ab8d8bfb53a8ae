//! The unit-delay reference executor.
//!
//! Runs a [`GuestSpec`] exactly as the guest network itself would — every
//! cell computes one pebble per step with unit-delay neighbour exchange —
//! and records the complete pebble grid plus per-cell database digests.
//! Every host simulation in the workspace is validated against this trace:
//! a correct latency-hiding simulation must compute *the same pebbles* and
//! leave every database copy in *the same state* (paper §2: "H performs the
//! same step-by-step computations as G").

use crate::database::{fold64, Db};
use crate::guest::{Dep, GuestSpec};
use crate::pebble::{PebbleGrid, PebbleId, PebbleValue};
use crate::program::ProgramRef;

/// The complete ground truth of a guest run.
#[derive(Debug, Clone)]
pub struct ReferenceTrace {
    /// The spec that was executed.
    pub spec: GuestSpec,
    /// All pebble values, `cells × steps`.
    pub grid: PebbleGrid,
    /// Digest of each cell's final database contents.
    pub final_db_digest: Vec<u64>,
    /// Order-sensitive digest of each cell's update log (step order).
    pub update_log_digest: Vec<u64>,
    /// Total pebbles computed (= cells × steps).
    pub work: u64,
}

impl ReferenceTrace {
    /// Value of pebble `id` in the ground truth.
    pub fn value(&self, id: PebbleId) -> PebbleValue {
        self.grid.get(id)
    }

    /// Heap bytes the trace holds: its copy of the spec, the pebble grid
    /// and both digest tables (allocated capacities, not estimates).
    pub fn heap_bytes(&self) -> usize {
        self.spec.heap_bytes()
            + self.grid.heap_bytes()
            + crate::vec_bytes(&self.final_db_digest)
            + crate::vec_bytes(&self.update_log_digest)
    }
}

/// Executor for the unit-delay guest.
pub struct ReferenceRun;

impl ReferenceRun {
    /// Execute `spec` and return the full trace.
    ///
    /// Memory: `cells × steps` pebble values plus one live database per
    /// cell. A 4096-cell, 4096-step run is ~128 MiB of pebbles; callers
    /// running parameter sweeps should size accordingly.
    pub fn execute(spec: &GuestSpec) -> ReferenceTrace {
        let program: ProgramRef = spec.program.instantiate();
        let cells = spec.num_cells();
        let steps = spec.steps;
        let boundary = spec.boundary();
        let kind = program.db_kind();

        let mut dbs: Vec<Db> = (0..cells).map(|c| kind.instantiate(c, spec.seed)).collect();
        let mut update_log_digest = vec![0xD16u64; cells as usize];
        let mut grid = PebbleGrid::new(cells, steps);

        let mut prev: Vec<PebbleValue> = (0..cells).map(|c| spec.initial_value(c)).collect();
        let mut cur: Vec<PebbleValue> = vec![0; cells as usize];
        let mut deps_buf: Vec<PebbleValue> = Vec::with_capacity(spec.max_deps());

        for t in 1..=steps {
            for c in 0..cells {
                deps_buf.clear();
                spec.visit_deps(c, t, |d| {
                    deps_buf.push(match d {
                        Dep::Cell(cc) => prev[cc as usize],
                        Dep::Boundary { side, offset } => boundary.value(side, offset, t),
                    });
                });
                let (v, u) = if spec.is_relay(c, t) {
                    // Relay slots repeat the lane's previous value and leave
                    // the database untouched (DbUpdate::None still folds
                    // into the update log, keeping digests well-defined).
                    (prev[c as usize], crate::database::DbUpdate::None)
                } else {
                    program.compute(c, t, &dbs[c as usize], &deps_buf)
                };
                dbs[c as usize].apply(&u);
                update_log_digest[c as usize] = fold64(update_log_digest[c as usize], u.digest());
                cur[c as usize] = v;
                grid.set(PebbleId::new(c, t), v);
            }
            std::mem::swap(&mut prev, &mut cur);
        }

        ReferenceTrace {
            spec: spec.clone(),
            grid,
            final_db_digest: dbs.iter().map(|d| d.digest()).collect(),
            update_log_digest,
            work: cells as u64 * steps as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramKind;

    fn spec() -> GuestSpec {
        GuestSpec::array(8, ProgramKind::KvWorkload, 7, 12)
    }

    #[test]
    fn execution_is_deterministic() {
        let a = ReferenceRun::execute(&spec());
        let b = ReferenceRun::execute(&spec());
        assert_eq!(a.grid, b.grid);
        assert_eq!(a.final_db_digest, b.final_db_digest);
        assert_eq!(a.update_log_digest, b.update_log_digest);
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = ReferenceRun::execute(&spec());
        let mut s2 = spec();
        s2.seed = 8;
        let b = ReferenceRun::execute(&s2);
        assert_ne!(a.grid, b.grid);
    }

    #[test]
    fn work_counts_all_pebbles() {
        let t = ReferenceRun::execute(&spec());
        assert_eq!(t.work, 8 * 12);
        assert_eq!(t.grid.len(), 96);
    }

    #[test]
    fn values_propagate_spatially() {
        // After t steps, a perturbation of cell 0's initial value must reach
        // cell t (information travels 1 cell per step) but not further.
        let base = GuestSpec::array(10, ProgramKind::StencilSum, 100, 5);
        let a = ReferenceRun::execute(&base);
        let mut pert = base.clone();
        pert.seed = 101; // changes every initial value; instead compare two
                         // runs cell-by-cell is not possible. Use rings below.
        let b = ReferenceRun::execute(&pert);
        assert_ne!(
            a.value(PebbleId::new(0, 1)),
            b.value(PebbleId::new(0, 1)),
            "seed must influence step-1 pebbles"
        );
    }

    #[test]
    fn ring_and_line_differ() {
        let line = ReferenceRun::execute(&GuestSpec::array(6, ProgramKind::StencilSum, 3, 6));
        let ring = ReferenceRun::execute(&GuestSpec::ring(6, ProgramKind::StencilSum, 3, 6));
        // Edge cells see boundary vs wraparound values.
        assert_ne!(
            line.value(PebbleId::new(0, 1)),
            ring.value(PebbleId::new(0, 1))
        );
        // Interior cells agree at step 1 (same deps), diverge later as edge
        // effects propagate inward.
        assert_eq!(
            line.value(PebbleId::new(3, 1)),
            ring.value(PebbleId::new(3, 1))
        );
        assert_ne!(
            line.value(PebbleId::new(3, 6)),
            ring.value(PebbleId::new(3, 6))
        );
    }

    #[test]
    fn mesh_reference_runs() {
        let t = ReferenceRun::execute(&GuestSpec::mesh(
            4,
            4,
            ProgramKind::RuleAutomaton { db_size: 8 },
            9,
            5,
        ));
        assert_eq!(t.work, 80);
        assert_eq!(t.final_db_digest.len(), 16);
    }

    #[test]
    fn db_digests_change_over_time_for_updating_programs() {
        let s = GuestSpec::array(4, ProgramKind::KvWorkload, 5, 1);
        let t1 = ReferenceRun::execute(&s);
        let mut s2 = s.clone();
        s2.steps = 20;
        let t2 = ReferenceRun::execute(&s2);
        assert_ne!(t1.final_db_digest, t2.final_db_digest);
    }

    #[test]
    fn pebble_grid_taskgraph_matches_native_guest() {
        // The grid expressed as a TaskGraph must reproduce the native
        // topology's run exactly: same pebbles, same database digests.
        for topo in [
            crate::guest::GuestTopology::Line { m: 8 },
            crate::guest::GuestTopology::Ring { m: 8 },
            crate::guest::GuestTopology::Mesh2D { w: 3, h: 3 },
        ] {
            let native = GuestSpec {
                topology: topo,
                program: ProgramKind::KvWorkload,
                seed: 7,
                steps: 6,
                graph: None,
            };
            let dag = GuestSpec::dag(
                crate::taskgraph::TaskGraph::pebble_grid(&topo, 6),
                ProgramKind::KvWorkload,
                7,
            );
            let a = ReferenceRun::execute(&native);
            let b = ReferenceRun::execute(&dag);
            assert_eq!(a.grid, b.grid);
            assert_eq!(a.final_db_digest, b.final_db_digest);
            assert_eq!(a.update_log_digest, b.update_log_digest);
        }
    }

    #[test]
    fn relay_slots_pass_values_through_untouched() {
        let g = crate::taskgraph::TaskGraph::fork_join(3); // 4 lanes, 5 layers
        let spec = GuestSpec::dag(g, ProgramKind::KvWorkload, 11);
        let t = ReferenceRun::execute(&spec);
        // Lane 3 idles (relays) until layer 3: its pebbles repeat the
        // initial value and its database stays fresh until then.
        assert_eq!(t.value(PebbleId::new(3, 1)), spec.initial_value(3));
        assert_eq!(t.value(PebbleId::new(3, 2)), spec.initial_value(3));
        assert_ne!(t.value(PebbleId::new(3, 3)), spec.initial_value(3));
        // Lane 0 computes at every layer of the fork and join phases.
        assert_ne!(t.value(PebbleId::new(0, 1)), spec.initial_value(0));
    }

    #[test]
    fn stencil_program_leaves_dbs_untouched() {
        let s = GuestSpec::array(4, ProgramKind::StencilSum, 5, 10);
        let t = ReferenceRun::execute(&s);
        let fresh: Vec<u64> = (0..4)
            .map(|c| s.db_kind().instantiate(c, s.seed).digest())
            .collect();
        assert_eq!(t.final_db_digest, fresh);
    }
}
