//! Serializable scenario descriptions — the wire format of the daemon.
//!
//! A [`ScenarioSpec`] captures everything a [`SimulationBuilder`] call
//! chain would configure — guest, host, placement strategy, engine
//! config, compute costs, faults, tracing — as one plain-data value that
//! serializes to JSON. The daemon accepts specs over HTTP, validates them
//! through the *same* builder checks the in-process API uses (so a spec
//! the daemon accepts behaves identically when replayed locally), runs
//! them on the event engine, and keys its server-side `ExecPlan` cache on
//! [`ScenarioSpec::plan_key`]. A spec and every struct it decodes
//! through refuse a key they do not know; the wire decoder,
//! [`ScenarioSpec::from_json`], also ignores the two retired keys older
//! specs still carry.
//!
//! Plan-cache keying rule: the key covers exactly the inputs of
//! lowering — `(guest, host, assignment, config)` — and deliberately
//! *excludes* faults, compute costs and tracing. Fault and cost variants
//! ride on a view of a cached plan (`ExecPlan::share`, bit-identical to a
//! fresh lowering, never re-lowered), and tracing only changes what is
//! observed, not what is scheduled.
//!
//! [`SimulationBuilder`]: crate::simulation::SimulationBuilder

use crate::error::Error;
use crate::pipeline::Strategy;
use crate::simulation::{ReadySimulation, Simulation};
use overlap_model::GuestSpec;
use overlap_net::HostGraph;
use overlap_sim::engine::EngineConfig;
use overlap_sim::faults::FaultPlan;
use serde::{Deserialize, Serialize, Value};

/// A complete, self-contained simulation request: the serializable twin
/// of a fully configured [`SimulationBuilder`](crate::SimulationBuilder).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// The guest computation to simulate.
    pub guest: GuestSpec,
    /// The host network to simulate it on.
    pub host: HostGraph,
    /// Database placement strategy.
    pub strategy: Strategy,
    /// Engine configuration (bandwidth, tick cap, multicast, jitter,
    /// memory budget).
    #[serde(default)]
    pub config: EngineConfig,
    /// Per-processor compute costs (ticks per pebble, ≥ 1).
    #[serde(default)]
    pub compute_costs: Option<Vec<u32>>,
    /// Deterministic fault plan.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Attribute stall ticks to their causes.
    #[serde(default)]
    pub trace: bool,
}

impl ScenarioSpec {
    /// A spec with the given guest and host and every option at its
    /// builder default: [`Strategy::Auto`], default engine config, no
    /// costs / faults / trace.
    pub fn new(guest: GuestSpec, host: HostGraph) -> Self {
        Self {
            guest,
            host,
            strategy: Strategy::Auto,
            config: EngineConfig::default(),
            compute_costs: None,
            faults: None,
            trace: false,
        }
    }

    /// Decode a wire spec. A key the spec does not know — at the top or
    /// inside any struct it decodes through — is an error naming it, so a
    /// typo'd option is never silently dropped. Two retired keys still
    /// decode, and are ignored: `engine` (the engine the wire once named)
    /// and `config.record_timing` (the switch timing used to be).
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).or_else(|_| {
            // Only a spec that fails to decode pays for a second read, as
            // an untyped document, and a third, of that document without
            // its retired keys.
            let mut spec: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
            if let Value::Map(top) = &mut spec {
                top.retain(|(key, _)| key != "engine");
                if let Some((_, Value::Map(config))) =
                    top.iter_mut().find(|(key, _)| key == "config")
                {
                    config.retain(|(key, _)| key != "record_timing");
                }
            }
            let stripped = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
            serde_json::from_str(&stripped).map_err(|e| e.to_string())
        })
    }

    /// Plan and validate this spec through the standard builder: its
    /// checks all apply (a disconnected host, a strategy the guest does
    /// not take, … are all rejected here with the same typed errors the
    /// in-process API returns). On success the returned [`ReadySimulation`] borrows
    /// this spec and can be lowered and run repeatedly.
    pub fn ready(&self) -> Result<ReadySimulation<'_>, Error> {
        let mut b = Simulation::of(&self.guest)
            .on(&self.host)
            .strategy(self.strategy);
        b = b
            .bandwidth(self.config.bandwidth)
            .max_ticks(self.config.max_ticks)
            .multicast(self.config.multicast)
            .jitter(self.config.jitter);
        if let Some(mem) = self.config.mem {
            b = b.memory_budget(mem);
        }
        if let Some(costs) = &self.compute_costs {
            b = b.compute_costs(costs.clone());
        }
        if let Some(faults) = &self.faults {
            b = b.faults(faults.clone());
        }
        if self.trace {
            b = b.trace();
        }
        b.build()
    }

    /// The canonical plan-cache key of this scenario: the JSON encoding
    /// of `(guest, host, assignment, config)` — exactly the inputs of
    /// `ExecPlan::build`. Two specs with equal keys lower to
    /// bit-identical plans; fault / cost / trace differences do not
    /// change the key (they are applied per-run, on top of the
    /// cached plan). Placement runs as part of keying, so an invalid
    /// spec fails here with the same error as [`ready`](Self::ready).
    pub fn plan_key(&self) -> Result<String, Error> {
        let ready = self.ready()?;
        Ok(overlap_sim::scenario_key(
            &self.guest,
            &self.host,
            ready.assignment(),
            self.config,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlap_model::ProgramKind;
    use overlap_net::topology::linear_array;
    use overlap_net::DelayModel;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            GuestSpec::array(16, ProgramKind::KvWorkload, 3, 12),
            linear_array(4, DelayModel::uniform(1, 6), 7),
        )
    }

    #[test]
    fn round_trips_through_json() {
        let mut s = spec();
        s.strategy = Strategy::Overlap { c: 4.0 };
        s.trace = true;
        let json = serde_json::to_string(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    /// Specs written before timing left `EngineConfig` still carry the
    /// removed timing switch in their config: it is a retired key, so
    /// they decode and key to the same plan as the spec without it.
    #[test]
    fn legacy_timing_field_decodes_to_the_same_plan() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let legacy = json.replace("\"config\":{", "\"config\":{\"record_timing\":true,");
        assert_ne!(legacy, json, "spec JSON must carry a config object");
        let back = ScenarioSpec::from_json(&legacy).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.plan_key().unwrap(), s.plan_key().unwrap());
    }

    /// Specs written while the wire named an engine still carry an
    /// `engine` key: it is a retired key, so they decode to the spec
    /// without it, key to the same plan and run on the event engine.
    #[test]
    fn legacy_engine_field_decodes_to_the_same_plan() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        for engine in ["\"Event\"", "\"Stepped\""] {
            let legacy = json.replace(
                "\"config\":{",
                &format!("\"engine\":{engine},\"config\":{{"),
            );
            assert_ne!(legacy, json, "spec JSON must carry a config object");
            let back = ScenarioSpec::from_json(&legacy).unwrap();
            assert_eq!(back, s, "{engine}");
            assert_eq!(back.plan_key().unwrap(), s.plan_key().unwrap(), "{engine}");
        }
    }

    /// A key the spec does not know is refused by name, wherever it sits:
    /// at the top, in the engine config, in a strategy variant, in the
    /// guest or in a fault plan. A retired key is only retired where it
    /// was a key.
    #[test]
    fn unknown_keys_are_refused_by_name() {
        let mut s = spec();
        s.strategy = Strategy::Overlap { c: 4.0 };
        s.faults = Some(FaultPlan::new().link_down(1, 2, 5, 9));
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(ScenarioSpec::from_json(&json), Ok(s));
        for (from, to, key, ty) in [
            (
                "\"trace\":",
                "\"traced\":true,\"trace\":",
                "traced",
                "ScenarioSpec",
            ),
            (
                "\"config\":{",
                "\"config\":{\"compute_cost\":[9,9,9,9],",
                "compute_cost",
                "EngineConfig",
            ),
            ("{\"c\":", "{\"halo\":1,\"c\":", "halo", "Strategy::Overlap"),
            ("\"steps\":", "\"step\":3,\"steps\":", "step", "GuestSpec"),
            (
                "\"outages\":[{",
                "\"outages\":[{\"at\":1,",
                "at",
                "LinkOutage",
            ),
            (
                "\"trace\":",
                "\"record_timing\":true,\"trace\":",
                "record_timing",
                "ScenarioSpec",
            ),
            (
                "\"config\":{",
                "\"config\":{\"engine\":\"Event\",",
                "engine",
                "EngineConfig",
            ),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "{from}");
            assert_eq!(
                ScenarioSpec::from_json(&bad),
                Err(format!("unknown field `{key}` of `{ty}`"))
            );
        }
    }

    /// Every struct a spec decodes through refuses unknown keys: a key
    /// slipped into any object of a spec that uses every part of the
    /// wire format (task graph, struct variants, jitter, memory budget,
    /// every kind of fault and a retry policy) is an error.
    #[test]
    fn every_object_of_the_wire_format_refuses_unknown_keys() {
        use overlap_model::TaskGraph;
        use overlap_sim::engine::{Jitter, MemBudget};
        use overlap_sim::faults::RetryPolicy;
        let mut s = ScenarioSpec::new(
            GuestSpec::dag(
                TaskGraph::layered_random(6, 3, 2, 3, 1),
                ProgramKind::RuleAutomaton { db_size: 4 },
                3,
            ),
            linear_array(4, DelayModel::uniform(1, 6), 7),
        );
        s.strategy = Strategy::Combined {
            c: 4.0,
            expansion: 2,
        };
        s.config.jitter = Jitter::Periodic {
            amplitude_pct: 30,
            period: 4,
        };
        s.config.mem = Some(MemBudget {
            budget: 2,
            reload_cost: 1,
        });
        let mut faults = (FaultPlan::new().link_down(0, 1, 2, 5))
            .delay_spike(1, 2, 3, 9, 2)
            .crash(3, 7);
        faults.retry = Some(RetryPolicy::default());
        s.faults = Some(faults);
        s.compute_costs = Some(vec![1, 2, 1, 2]);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(ScenarioSpec::from_json(&json), Ok(s));
        let objects: Vec<usize> = json.match_indices('{').map(|(i, _)| i).collect();
        assert!(objects.len() > 15, "{json}");
        for i in objects {
            let comma = if json[i + 1..].starts_with('}') {
                ""
            } else {
                ","
            };
            let bad = format!("{}{{\"bogus\":0{comma}{}", &json[..i], &json[i + 1..]);
            assert!(ScenarioSpec::from_json(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn plan_key_ignores_faults_and_trace() {
        let base = spec();
        let key = base.plan_key().unwrap();
        let mut varied = base.clone();
        varied.trace = true;
        varied.faults = Some(FaultPlan::default());
        assert_eq!(varied.plan_key().unwrap(), key);
        // …but a different guest is a different plan.
        let mut other = base.clone();
        other.guest.steps += 1;
        assert_ne!(other.plan_key().unwrap(), key);
    }

    /// `ready` and `plan_key` both place the spec, so both fail with the
    /// builder's typed error; a traced run with a memory budget is no
    /// error.
    #[test]
    fn validation_matches_the_builder_checks() {
        let errors = |s: &ScenarioSpec| (s.ready().unwrap_err(), s.plan_key().unwrap_err());
        let mut s = spec();
        s.trace = true;
        s.config.mem = Some(overlap_sim::engine::MemBudget {
            budget: 2,
            reload_cost: 1,
        });
        let report = s.ready().unwrap().run().unwrap();
        assert!(report.validated);
        let stalls = report.stats.stalls.expect("traced");
        assert_eq!(stalls.stall_mem_reload, report.stats.mem.reload_ticks);
        assert!(stalls.stall_mem_reload > 0);
        let mut s = spec();
        s.host = HostGraph::new("split", 4);
        let (a, b) = errors(&s);
        for e in [a, b] {
            assert!(matches!(e, Error::InvalidConfig { option: "host", .. }));
        }
        let mut s = spec();
        s.guest = GuestSpec::mesh(4, 4, ProgramKind::KvWorkload, 3, 12);
        s.strategy = Strategy::Halo { halo: 1 };
        let (a, b) = errors(&s);
        for e in [a, b] {
            assert!(matches!(e, Error::InapplicableStrategy));
        }
    }

    #[test]
    fn ready_spec_runs_and_validates() {
        let report = spec().ready().unwrap().run().unwrap();
        assert!(report.validated);
    }
}
