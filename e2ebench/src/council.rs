//! `council`: the Fig. 9 comparator. A CloudInsight council of the 21
//! Table II members is fitted on the train+validation history of wiki-30min,
//! LCG-10min, AZ-30min, GL-30min and FB-5min, and forecasts every test
//! interval. `ld-baselines` (trees, forests, SVR, ARIMA, least squares)
//! does all the work; nn, gp and serve are never called. The council's own
//! seed is fixed.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ld_api::{Partition, Predictor, Series};
use ld_baselines::cloudinsight::table2_pool;
use ld_baselines::CloudInsight;
use ld_telemetry::Tracer;

use crate::metrics::{self, Digest, COUNCIL_FAMILIES, COUNCIL_MEMBERS};
use crate::{passes, spans, speed};
use crate::{Ctx, Outcome};

const COUNCIL_SEED: u64 = 42;
const CONFIGS: [&str; 5] = ["wiki-30min", "LCG-10min", "AZ-30min", "GL-30min", "FB-5min"];

/// One walk-forward: the series, its raw forecasts, each forecast's time,
/// and its wall time.
struct Walk {
    series: Series,
    preds: Vec<f64>,
    forecast_s: Vec<f64>,
    walk_s: f64,
}

/// `ld_api::walk_forward` with each forecast timed and kept raw, so a
/// non-finite forecast is counted instead of clamped away. `span` wraps
/// the fit and each forecast in a traced replay.
fn walk(
    council: &mut CloudInsight,
    series: Series,
    mut span: impl FnMut(&'static str, u64) -> Option<ld_telemetry::SpanGuard>,
) -> Walk {
    let test_start = Partition::paper_default(series.len()).val_end;
    let start = Instant::now();
    let guard = span("baselines.fit", 0);
    council.fit(&series.values[..test_start]);
    drop(guard);
    let mut preds = Vec::with_capacity(series.len() - test_start);
    let mut forecast_s = Vec::with_capacity(series.len() - test_start);
    for i in test_start..series.len() {
        let guard = span("baselines.predict", i as u64);
        let t = Instant::now();
        preds.push(council.predict(&series.values[..i]));
        forecast_s.push(t.elapsed().as_secs_f64());
        drop(guard);
    }
    Walk {
        walk_s: start.elapsed().as_secs_f64(),
        series,
        preds,
        forecast_s,
    }
}

fn mape(w: &Walk) -> f64 {
    let test_start = Partition::paper_default(w.series.len()).val_end;
    let clamped: Vec<f64> = w
        .preds
        .iter()
        .map(|&p| if p.is_finite() { p.max(0.0) } else { 0.0 })
        .collect();
    ld_api::mape(&clamped, &w.series.values[test_start..])
}

fn preds_digest(walks: &[Walk]) -> u64 {
    let mut d = Digest::new();
    for p in walks.iter().flat_map(|w| &w.preds) {
        d.word(p.to_bits());
    }
    d.value()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let configs = passes::configs(if ctx.smoke { &["FB-10min"] } else { &CONFIGS });
    let mut walks: Vec<Walk> = Vec::new();
    // The host-speed factor timed right after each walk-forward.
    let mut speeds: Vec<f64> = Vec::new();
    let (setup_s, done) = passes::run(ctx, &configs, |series| {
        walks.push(walk(
            &mut CloudInsight::new(COUNCIL_SEED),
            series,
            |_, _| None,
        ));
        speeds.push(speed::factor());
    });
    let forecast_s: Vec<f64> = walks
        .iter()
        .flat_map(|w| w.forecast_s.iter().copied())
        .collect();
    let per_pass = configs.len();
    out.attempted = forecast_s.len() as u64;
    out.failed = walks
        .iter()
        .flat_map(|w| &w.preds)
        .filter(|p| !p.is_finite())
        .count() as u64;
    out.digest = preds_digest(&walks[..per_pass]);

    let mapes: Vec<f64> = walks.iter().map(mape).collect();
    out.check(
        "mape-finite",
        mapes.iter().all(|m| m.is_finite()),
        format!("{} test-partition MAPEs", mapes.len()),
    );
    out.notes.push(format!(
        "mean test MAPE {:.3}% (not bounded: it follows the seed's traces)",
        metrics::mean(&mapes)
    ));
    let again = walk(
        &mut CloudInsight::new(COUNCIL_SEED),
        walks[0].series.clone(),
        |_, _| None,
    );
    out.check(
        "forecasts-repeat",
        again
            .preds
            .iter()
            .map(|p| p.to_bits())
            .eq(walks[0].preds.iter().map(|p| p.to_bits())),
        format!("forecast digest {:016x} over the first pass", out.digest),
    );

    let (tail_p, tail_s) = metrics::tail(&forecast_s);
    out.notes.push(format!(
        "{} walk-forwards in {done} passes, {} forecasts; forecast p{tail_p} {:.1} us (not bounded)",
        walks.len(),
        forecast_s.len(),
        tail_s * 1e6
    ));

    if ctx.traced {
        traced(&walks, &mut out);
    } else {
        let walk_s: Vec<f64> = walks.iter().map(|w| w.walk_s).collect();
        let forecasting_s: f64 = walks
            .iter()
            .zip(&speeds)
            .map(|(w, f)| w.forecast_s.iter().sum::<f64>() * f)
            .sum();
        out.notes.push(speed::note(&speeds, &walk_s));
        let adjusted: Vec<f64> = walk_s.iter().zip(&speeds).map(|(t, f)| t * f).collect();
        out.set("job_s", metrics::mean(&adjusted));
        out.set("forecast_us", forecasting_s / forecast_s.len() as f64 * 1e6);
        out.set("setup_s", metrics::median(&setup_s));
    }
    out
}

/// A member wrapped so each of its calls is a span under whichever council
/// call is running. Delegates untouched, so forecasts stay bitwise equal.
struct Timed {
    inner: Box<dyn Predictor>,
    span: String,
    index: u64,
    /// The council call in progress, set by the harness around each call.
    scope: Arc<Mutex<Tracer>>,
}

impl Timed {
    fn current(&self) -> Tracer {
        self.scope.lock().expect("span scope lock poisoned").clone()
    }
}

impl Predictor for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fit(&mut self, history: &[f64]) {
        let _span = self.current().span_at(&self.span, self.index);
        self.inner.fit(history);
    }

    fn predict(&mut self, history: &[f64]) -> f64 {
        let _span = self.current().span_at(&self.span, self.index);
        self.inner.predict(history)
    }
}

/// Replays every walk-forward of the untraced pass through a council of
/// span-wrapped members, with spans around the council's fit and each
/// forecast.
fn traced(walks: &[Walk], out: &mut Outcome) {
    let tracer = Tracer::enabled();
    let scope = Arc::new(Mutex::new(Tracer::disabled()));
    let start = Instant::now();
    let mut names_match = true;
    let mut preds_match = true;
    for (k, w) in walks.iter().enumerate() {
        let members: Vec<Box<dyn Predictor>> = table2_pool(COUNCIL_SEED)
            .into_iter()
            .enumerate()
            .map(|(m, inner)| {
                names_match &= inner.name() == COUNCIL_MEMBERS[m];
                Box::new(Timed {
                    span: format!("member.{}", COUNCIL_MEMBERS[m]),
                    inner,
                    index: m as u64,
                    scope: Arc::clone(&scope),
                }) as Box<dyn Predictor>
            })
            .collect();
        let mut council = CloudInsight::with_members(members);
        let walk_span = tracer.span_at("walk", k as u64);
        let walk_tracer = walk_span.tracer();
        let replay = walk(&mut council, w.series.clone(), |name, index| {
            let guard = walk_tracer.span_at(name, index);
            *scope.lock().expect("span scope lock poisoned") = guard.tracer();
            Some(guard)
        });
        drop(walk_span);
        preds_match &= replay
            .preds
            .iter()
            .map(|p| p.to_bits())
            .eq(w.preds.iter().map(|p| p.to_bits()));
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let trace = tracer.snapshot();
    out.check(
        "council-members",
        names_match,
        "table2_pool lists the 21 Table II members in order",
    );
    if !preds_match {
        out.unresolved.extend(
            metrics::PER_LAYER
                .iter()
                .map(|d| d.name)
                .filter(|n| n.starts_with("baselines.")),
        );
    }
    out.notes.push(format!(
        "traced replay: forecasts {} the untraced pass bitwise",
        if preds_match { "match" } else { "DIFFER from" }
    ));

    let reference_ns = walks.iter().map(|w| (w.walk_s * 1e9) as u64).sum();
    spans::summarize(out, &trace, wall_ns, reference_ns);
    let fit = spans::named(&trace, "baselines.fit");
    let predict = spans::named(&trace, "baselines.predict");
    let members = spans::prefixed(&trace, "member.");
    out.set(
        "baselines.fit_pct",
        spans::pct(spans::union_ns(&fit), wall_ns),
    );
    out.set(
        "baselines.predict_pct",
        spans::pct(spans::union_ns(&predict), wall_ns),
    );
    let council_calls: Vec<_> = fit.iter().chain(&predict).copied().collect();
    let charged = spans::attribute(&[members, council_calls]);
    out.set(
        "baselines.council_self_pct",
        spans::pct(charged[1], wall_ns),
    );

    let busy: Vec<u64> = COUNCIL_MEMBERS
        .iter()
        .map(|name| spans::union_ns(&spans::named(&trace, &format!("member.{name}"))))
        .collect();
    for (name, ns) in COUNCIL_MEMBERS.iter().zip(&busy) {
        out.set(
            &format!("baselines.member.{name}_pct"),
            spans::pct(*ns, wall_ns),
        );
    }
    for (family, first, count) in COUNCIL_FAMILIES {
        let ns = busy[first..first + count].iter().sum();
        out.set(
            &format!("baselines.family.{family}_pct"),
            spans::pct(ns, wall_ns),
        );
    }
}
