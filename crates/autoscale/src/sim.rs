//! The predictive auto-scaling policy simulation (Section IV-C).
//!
//! At the (i-1)'th interval the policy predicts `P_i`, provisions `P_i`
//! VMs, and at interval `i` assigns one VM per arriving job. Shortfalls
//! spawn on-demand VMs with a cold-start delay; surpluses idle. The
//! simulator walks a predictor through a JAR series exactly like the
//! accuracy harness, but scores provisioning outcomes instead of MAPE.

use ld_api::{Predictor, Series};

use crate::job::ExecTimeModel;
use crate::policy::{to_count, ProvisioningPolicy};
use crate::report::{AutoscaleReport, IntervalRecord};
use crate::vm::Vm;

/// Simulation configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// VM cold-start delay in seconds. The paper cites Mao & Humphrey's VM
    /// startup study; ~100 s is representative for public-cloud instances.
    pub vm_startup_secs: f64,
    /// Job execution-time model.
    pub exec: ExecTimeModel,
    /// Seed for execution-time sampling.
    pub seed: u64,
    /// Index of the first simulated interval (the predictor's `fit` sees
    /// everything before it).
    pub test_start: usize,
    /// How predictions map to VM counts (the paper uses
    /// [`ProvisioningPolicy::Exact`]).
    pub policy: ProvisioningPolicy,
    /// Optional SLA deadline in seconds: jobs finishing later count as
    /// violations (`sla_violation_rate` in the report).
    pub sla_deadline_secs: Option<f64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vm_startup_secs: 97.0,
            exec: ExecTimeModel::default(),
            seed: 0,
            test_start: 1,
            policy: ProvisioningPolicy::Exact,
            sla_deadline_secs: None,
        }
    }
}

/// Runs the policy with the given predictor over `series`, simulating
/// intervals `config.test_start..`.
///
/// # Panics
/// Panics if `test_start` leaves no history to fit on or no intervals to
/// simulate.
pub fn simulate(
    predictor: &mut dyn Predictor,
    series: &Series,
    config: &SimConfig,
) -> AutoscaleReport {
    simulate_traced(predictor, series, config, &ld_telemetry::Tracer::disabled())
}

/// [`simulate`] with a tracer: the run nests an `autoscale.simulate` root
/// over a `fit` span and one `interval#i` span per simulated interval.
/// Interval spans are keyed by the interval index, so the traced tree is
/// deterministic for a given series and config. Each interval also records
/// a scaling-decision event under the `"autoscale/<predictor name>"` scope
/// (predicted vs. actual VM counts, on-demand spin-ups, idle VMs, SLA
/// violations), so simulations of different predictors on one tracer never
/// collide, plus aggregate counters. The simulation itself is unchanged.
pub fn simulate_traced(
    predictor: &mut dyn Predictor,
    series: &Series,
    config: &SimConfig,
    tracer: &ld_telemetry::Tracer,
) -> AutoscaleReport {
    assert!(
        config.test_start > 0 && config.test_start < series.len(),
        "test_start {} out of range for {} intervals",
        config.test_start,
        series.len()
    );
    let sim_guard = tracer.span("autoscale.simulate");
    let sim_tracer = sim_guard.tracer();
    {
        let _fit_guard = sim_tracer.span("fit");
        predictor.fit(&series.values[..config.test_start]);
    }
    let scope = tracer
        .is_enabled()
        .then(|| format!("autoscale/{}", predictor.name()));

    let mut intervals = Vec::with_capacity(series.len() - config.test_start);
    for i in config.test_start..series.len() {
        let _interval_guard = sim_tracer.span_at("interval", i as u64);
        // Step 1 (at interval i-1): predict and provision per policy.
        let raw = predictor.predict(&series.values[..i]);
        let predicted = config.policy.vms_for(raw);

        // Step 2 (at interval i): jobs arrive, one VM each.
        let actual = to_count(series.values[i].round());
        let jobs = config.exec.jobs_for_interval(i, actual, config.seed);

        let mut vms: Vec<Vm> = (0..predicted).map(|_| Vm::proactive()).collect();
        let on_demand = actual.saturating_sub(predicted);
        for _ in 0..on_demand {
            vms.push(Vm::on_demand(config.vm_startup_secs));
        }

        let mut turnaround_sum = 0.0;
        let mut makespan: f64 = 0.0;
        let mut sla_violations = 0usize;
        for (vm, job) in vms.iter_mut().zip(&jobs) {
            let done = vm.assign(job.exec_secs);
            turnaround_sum += done;
            makespan = makespan.max(done);
            if let Some(deadline) = config.sla_deadline_secs {
                if done > deadline {
                    sla_violations += 1;
                }
            }
        }
        let mut idle_vms = 0;
        for vm in &mut vms {
            vm.mark_idle();
            if vm.busy_until_secs.is_none() {
                idle_vms += 1;
            }
        }

        if let Some(scope) = &scope {
            tracer.incr("autoscale.intervals");
            tracer.add("autoscale.on_demand_vms", on_demand as u64);
            tracer.add("autoscale.idle_vms", idle_vms as u64);
            tracer.add("autoscale.sla_violations", sla_violations as u64);
            tracer.record_with(scope, "interval", i as u64, |e| {
                e.int("predicted", predicted as u64)
                    .int("actual", actual as u64)
                    .int("on_demand_vms", on_demand as u64)
                    .int("idle_vms", idle_vms as u64)
                    .int("sla_violations", sla_violations as u64)
                    .num("makespan_secs", makespan);
            });
        }

        intervals.push(IntervalRecord {
            predicted,
            actual,
            mean_turnaround_secs: if actual > 0 {
                turnaround_sum / actual as f64
            } else {
                0.0
            },
            makespan_secs: makespan,
            on_demand_vms: on_demand,
            idle_vms,
            sla_violations,
        });
    }

    AutoscaleReport {
        predictor: predictor.name(),
        intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always predicts a fixed count.
    struct Fixed(f64);
    impl Predictor for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn fit(&mut self, _h: &[f64]) {}
        fn predict(&mut self, _h: &[f64]) -> f64 {
            self.0
        }
    }

    /// Predicts the true next value (oracle).
    struct Oracle<'a>(&'a [f64]);
    impl Predictor for Oracle<'_> {
        fn name(&self) -> String {
            "oracle".into()
        }
        fn fit(&mut self, _h: &[f64]) {}
        fn predict(&mut self, h: &[f64]) -> f64 {
            self.0[h.len()]
        }
    }

    fn series() -> Series {
        Series::new("az", 60, vec![10.0, 12.0, 8.0, 15.0, 11.0, 9.0, 14.0, 10.0])
    }

    #[test]
    fn oracle_has_zero_provisioning_error_and_fastest_turnaround() {
        let s = series();
        let values = s.values.clone();
        let config = SimConfig {
            test_start: 2,
            ..SimConfig::default()
        };
        let report = simulate(&mut Oracle(&values), &s, &config);
        assert_eq!(report.under_provisioning_rate(), 0.0);
        assert_eq!(report.over_provisioning_rate(), 0.0);
        assert_eq!(report.on_demand_vm_count(), 0);
        assert_eq!(report.idle_vm_count(), 0);
        // No job pays the startup delay: mean turnaround ~ exec median.
        let t = report.avg_turnaround_secs();
        assert!((100.0..150.0).contains(&t), "turnaround {t}");
    }

    #[test]
    fn underprovisioning_inflates_turnaround() {
        let s = series();
        let config = SimConfig {
            test_start: 2,
            ..SimConfig::default()
        };
        let under = simulate(&mut Fixed(0.0), &s, &config);
        let values = s.values.clone();
        let exact = simulate(&mut Oracle(&values), &s, &config);
        // Every job under Fixed(0) pays the ~97 s cold start.
        assert!(
            under.avg_turnaround_secs() > exact.avg_turnaround_secs() + 90.0,
            "under {} exact {}",
            under.avg_turnaround_secs(),
            exact.avg_turnaround_secs()
        );
        assert_eq!(under.under_provisioning_rate(), 1.0);
    }

    #[test]
    fn overprovisioning_idles_vms_without_slowing_jobs() {
        let s = series();
        let config = SimConfig {
            test_start: 2,
            ..SimConfig::default()
        };
        let over = simulate(&mut Fixed(100.0), &s, &config);
        let values = s.values.clone();
        let exact = simulate(&mut Oracle(&values), &s, &config);
        assert_eq!(over.under_provisioning_rate(), 0.0);
        assert!(over.over_provisioning_rate() > 5.0);
        assert!(over.idle_vm_count() > 0);
        // Turnaround identical to exact provisioning (same seeds).
        assert!((over.avg_turnaround_secs() - exact.avg_turnaround_secs()).abs() < 1e-9);
    }

    #[test]
    fn sla_violations_track_cold_starts() {
        let s = series();
        let values = s.values.clone();
        // Deadline between the exec ceiling and exec + cold start: only
        // cold-started jobs can violate.
        let config = SimConfig {
            test_start: 2,
            sla_deadline_secs: Some(190.0),
            ..SimConfig::default()
        };
        let exact = simulate(&mut Oracle(&values), &s, &config);
        assert!(
            exact.sla_violation_rate() < 0.05,
            "oracle SLA violations {}",
            exact.sla_violation_rate()
        );
        let under = simulate(&mut Fixed(0.0), &s, &config);
        assert!(
            under.sla_violation_rate() > 0.5,
            "cold-start SLA violations {}",
            under.sla_violation_rate()
        );
        // No deadline -> rate is zero by definition.
        let no_deadline = SimConfig {
            test_start: 2,
            ..SimConfig::default()
        };
        let r = simulate(&mut Fixed(0.0), &s, &no_deadline);
        assert_eq!(r.sla_violation_rate(), 0.0);
    }

    #[test]
    fn more_accurate_predictor_dominates_on_all_three_metrics() {
        // Noisy-but-close vs far-off constant predictors.
        let s = series();
        let config = SimConfig {
            test_start: 2,
            ..SimConfig::default()
        };
        let close = simulate(&mut Fixed(11.0), &s, &config); // near the mean
        let far = simulate(&mut Fixed(2.0), &s, &config);
        assert!(close.avg_turnaround_secs() <= far.avg_turnaround_secs());
        assert!(close.under_provisioning_rate() < far.under_provisioning_rate());
    }

    #[test]
    fn deterministic_given_seed() {
        let s = series();
        let config = SimConfig {
            test_start: 3,
            ..SimConfig::default()
        };
        let a = simulate(&mut Fixed(10.0), &s, &config);
        let b = simulate(&mut Fixed(10.0), &s, &config);
        assert_eq!(a.intervals, b.intervals);
    }

    #[test]
    fn zero_arrival_interval_is_handled() {
        let s = Series::new("z", 60, vec![5.0, 0.0, 3.0]);
        let config = SimConfig {
            test_start: 1,
            ..SimConfig::default()
        };
        let report = simulate(&mut Fixed(2.0), &s, &config);
        assert_eq!(report.intervals[0].actual, 0);
        assert_eq!(report.intervals[0].mean_turnaround_secs, 0.0);
        assert_eq!(report.intervals[0].idle_vms, 2);
    }

    #[test]
    fn predictors_sharing_a_tracer_record_disjoint_interval_scopes() {
        let s = series();
        let values = s.values.clone();
        let config = SimConfig {
            test_start: 2,
            ..SimConfig::default()
        };
        let tracer = ld_telemetry::Tracer::enabled();
        let fixed = simulate_traced(&mut Fixed(10.0), &s, &config, &tracer);
        let oracle = simulate_traced(&mut Oracle(&values), &s, &config, &tracer);
        let events = tracer.events();
        let simulated = s.len() - config.test_start;
        for (scope, report) in [("autoscale/fixed", &fixed), ("autoscale/oracle", &oracle)] {
            let intervals = events.events_of(scope, "interval");
            assert_eq!(intervals.len(), simulated, "{scope}");
            for (event, record) in intervals.iter().zip(&report.intervals) {
                assert_eq!(
                    event.num("predicted"),
                    Some(record.predicted as f64),
                    "{scope}"
                );
            }
        }
        assert_eq!(
            events.events.len(),
            2 * simulated,
            "no event outside the two scopes"
        );
        assert_eq!(events.counter("autoscale.intervals"), 2 * simulated as u64);
    }
}
