//! Every workload runs to its end at smoke size (class S skeletons,
//! small batches, one set-up, one pass) with its checks passing, traced
//! and untraced; and every check fails when handed a perturbed count,
//! forecast, period or recovered state, so none of them is vacuous.

use mpp_core::dpd::DpdConfig;
use mpp_engine::{FederatedEngine, FederationConfig};
use mpp_nasbench::Class;
use servebench::inputs::{synthesize, Inputs};
use servebench::reference::{self, check_pass, check_recovery, check_restart, Capture, Reference};
use servebench::serve::{self, cycle_reaching, plan_cycles, Options, Workload, FORECAST_DEPTH};
use std::path::PathBuf;
use std::sync::Mutex;

/// The heap figure reads a process-wide allocation counter, so the
/// tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}
const BATCH: usize = 512;

fn smoke_options(w: Workload, trace: bool) -> Options {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("servebench-smoke-{}-{trace}", w.name()));
    let mut opts = Options::new(w, 7, 0.0, trace, dir);
    opts.class = Class::S;
    opts.batch = BATCH;
    opts.setups = 1;
    opts.layer_events = 1 << 15;
    opts
}

fn runs_to_its_end(w: Workload, trace: bool) {
    let _serial = serial();
    let out = serve::run(&smoke_options(w, trace));
    assert!(out.correct, "{}: {:?}", w.name(), out.failures);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    assert!(!out.metrics.is_empty());
    for (name, value, _) in &out.metrics {
        assert!(
            value.is_finite() && *value > 0.0,
            "{}: {name} = {value}",
            w.name()
        );
    }
}

#[test]
fn lu32_ingest_runs_to_its_end() {
    runs_to_its_end(Workload::Lu32Ingest, false);
    runs_to_its_end(Workload::Lu32Ingest, true);
}

#[test]
fn table1_tenants_runs_to_its_end() {
    runs_to_its_end(Workload::Table1Tenants, false);
    runs_to_its_end(Workload::Table1Tenants, true);
}

#[test]
fn lu32_durable_runs_to_its_end() {
    runs_to_its_end(Workload::Lu32Durable, false);
    runs_to_its_end(Workload::Lu32Durable, true);
}

/// One pass of `w` at smoke size, captured as `serve::run` captures it,
/// with the reference for it.
fn pass(w: Workload) -> (Inputs, Reference, Capture) {
    let _serial = serial();
    let inputs = synthesize(&w.configs(Class::S), 11);
    let cycles = plan_cycles(&inputs, w, BATCH);
    let probe = cycle_reaching(&cycles, 1, 3);
    let member = smoke_options(w, false).member_config(None);
    let fed = FederatedEngine::new(FederationConfig::new(1, member.shards).member_config(member));
    let client = fed.client();
    let mut probe_periods = Vec::new();
    for c in &cycles {
        client.observe_batch(&inputs.events[c.start..c.end]);
        if c.end == probe {
            probe_periods = serve::capture(&client, &inputs).periods;
        }
    }
    let mut got = serve::capture(&client, &inputs);
    got.probe_periods = probe_periods;
    let reference = reference::compute(&inputs, &DpdConfig::default(), FORECAST_DEPTH, probe);
    (inputs, reference, got)
}

fn fails(inputs: &Inputs, reference: &Reference, got: &Capture, ensemble: bool) -> Vec<String> {
    let mut checked = 0;
    let f = check_pass(
        inputs,
        reference,
        got,
        &DpdConfig::default(),
        ensemble,
        &mut checked,
    );
    assert!(checked > 0);
    f
}

#[test]
fn pass_checks_catch_perturbed_counts_forecasts_and_periods() {
    let (inputs, reference, got) = pass(Workload::Lu32Ingest);
    assert_eq!(
        fails(&inputs, &reference, &got, false),
        Vec::<String>::new()
    );

    let mut bad = got.clone();
    bad.jobs[0].1.hits += 1;
    assert_eq!(
        fails(&inputs, &reference, &bad, false).len(),
        1,
        "hit count"
    );

    let mut bad = got.clone();
    bad.jobs[0].1.events_ingested -= 1;
    assert!(
        !fails(&inputs, &reference, &bad, false).is_empty(),
        "ingested count"
    );

    let mut bad = got.clone();
    let f = &mut bad.forecasts[3][0];
    f.0 = Some(f.0.map_or(1, |v| v + 1));
    assert_eq!(fails(&inputs, &reference, &bad, false).len(), 1, "forecast");

    // A lag the kept observations contradict breaks equation (1).
    let mut bad = got.clone();
    let (i, m) = bad
        .probe_periods
        .iter()
        .enumerate()
        .find_map(|(i, p)| p.map(|m| (i, m)))
        .expect("some stream is locked mid-pass");
    let wrong = (1..=256)
        .find(|&l| !reference::equation_one_holds(&reference.probe_windows[i], l, 256))
        .expect("some lag fails");
    assert_ne!(wrong, m);
    bad.probe_periods[i] = Some(wrong);
    assert_eq!(fails(&inputs, &reference, &bad, false).len(), 1, "period");

    // A pass with no locked stream mid-pass proves nothing.
    let mut bad = got.clone();
    bad.probe_periods.iter_mut().for_each(|p| *p = None);
    assert_eq!(fails(&inputs, &reference, &bad, false).len(), 1, "vacuous");
}

#[test]
fn ensemble_checks_catch_perturbed_member_counts() {
    let (inputs, reference, got) = pass(Workload::Table1Tenants);
    assert_eq!(fails(&inputs, &reference, &got, true), Vec::<String>::new());

    let mut bad = got.clone();
    bad.models[0].1[0].misses += 1;
    assert_eq!(
        fails(&inputs, &reference, &bad, true).len(),
        1,
        "DPD member"
    );

    let mut bad = got.clone();
    bad.models[0].1[1].champion_events += 1;
    assert_eq!(
        fails(&inputs, &reference, &bad, true).len(),
        1,
        "champion events"
    );
}

#[test]
fn restart_checks_catch_perturbed_state() {
    let (_, _, before) = pass(Workload::Lu32Ingest);
    let mut checked = 0;
    assert!(check_restart(&before, &before.clone(), &mut checked).is_empty());

    let mut after = before.clone();
    after.jobs[0].1.abstentions += 1;
    assert_eq!(check_restart(&before, &after, &mut checked).len(), 1);

    let mut after = before.clone();
    after.forecasts[0][1].1 = Some(9);
    assert_eq!(check_restart(&before, &after, &mut checked).len(), 1);

    let mut after = before.clone();
    after.periods[2] = Some(7);
    assert_eq!(check_restart(&before, &after, &mut checked).len(), 1);

    assert!(check_recovery(&before, &before, 100, 100, &mut checked).is_empty());
    assert_eq!(
        check_recovery(&before, &before, 99, 100, &mut checked).len(),
        1
    );
}
