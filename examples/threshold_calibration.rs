//! Offline threshold calibration (the paper's Fig. 5 offline component):
//! measure the first-violation queue length across loads in simulation, fit
//! the linear threshold model against Erlang-C, and print the fit.
//!
//! ```sh
//! cargo run --release --example threshold_calibration
//! ```

use queueing::erlang::expected_queue_len;
use queueing::threshold::{r_squared, ThresholdModel};
use schedulers::ideal::{CentralQueue, CentralQueueConfig};
use simcore::report::Table;
use simcore::time::SimDuration;
use workload::{poisson_trace, ServiceDistribution};

fn main() {
    let cores = 64;
    // Dispersed-but-bounded service (90% x 0.5us, 10% x 5.5us, mean 1us):
    // no single request can violate the 10us SLO on its own, so every
    // violation is queueing-caused, and service variability lets early
    // violations appear at sub-unity loads (deterministic service would pin
    // the first violation at the analytic floor k*(L-1); see EXPERIMENTS.md
    // on Fig. 7).
    let dist = ServiceDistribution::Bimodal {
        short: SimDuration::from_ns(500),
        long: SimDuration::from_ns(5_500),
        p_long: 0.10,
    };
    let slo = SimDuration::from_us(10); // L = 10
    let loads = [0.985, 0.99, 0.9925, 0.995, 0.9975];

    // Measure the queue length at the first SLO violation per load.
    let mut points = Vec::new();
    let mut table = Table::new(&["load", "E[Nq] (Erlang-C)", "measured T (first violation)"]);
    for &load in &loads {
        let trace = poisson_trace(dist, load, cores, 1_000_000, 64, 5);
        let offered = trace.offered_load(cores) * cores as f64;
        let r = CentralQueue::new(CentralQueueConfig::ideal(cores)).run_instrumented(&trace);
        if let Some(t_first) = r.first_violation_queue_len(&trace, slo) {
            let nq = expected_queue_len(cores, offered);
            table.row(&[
                &format!("{load:.2}"),
                &format!("{nq:.1}"),
                &t_first.to_string(),
            ]);
            points.push((offered, t_first as f64));
        } else {
            table.row(&[&format!("{load:.2}"), "-", "no violations observed"]);
        }
    }
    table.print();

    if points.len() >= 2 {
        let model = ThresholdModel::fit(cores, &points);
        let xy: Vec<(f64, f64)> = points
            .iter()
            .map(|&(a, t)| (expected_queue_len(cores, a), t))
            .collect();
        let r2 = r_squared(&xy, model.a, model.b);
        println!(
            "\nfitted model: E[T] = {:.3} * E[Nq] + {:.1}   (R^2 = {:.4})",
            model.a, model.b, r2
        );
        println!("paper's Fixed-distribution constants for comparison: a=1.01, c=0.998, b=d=0");
        let naive = queueing::naive_upper_bound(cores, 10.0);
        println!(
            "at load 0.99 the model picks T={} vs the naive upper bound k*L+1={naive}",
            model.threshold(cores, cores as f64 * 0.99)
        );
    } else {
        println!("\nnot enough violating loads to fit a model; raise the load range");
    }
}
