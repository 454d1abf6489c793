//! Figure 8 / §4.2.1 ablation: the notification mechanism. Compares And
//! with and without wake flags: identical results, but the notification
//! variant recomputes far fewer r-cliques once plateaus dominate.

use hdsd_datasets::Dataset;
use hdsd_nucleus::{
    and, and_opts, AndOptions, CliqueSpace, CoreSpace, LocalConfig, Order, TrussSpace,
};

use crate::{ms, time, Env, Table};

/// Regenerates the notification ablation.
pub fn run(env: &Env) {
    println!("Figure 8 — notification-mechanism ablation (And, natural order)\n");
    let t = Table::new(&[
        ("dataset", 9),
        ("space", 9),
        ("notif", 6),
        ("sweeps", 7),
        ("recomputations", 15),
        ("work-saved", 11),
        ("runtime", 11),
    ]);
    for d in [Dataset::Fb, Dataset::Sse, Dataset::Wnd] {
        let g = env.load(d);
        {
            let sp = CoreSpace::new(&g);
            ablate(&t, d.short_name(), "core", &sp);
        }
        {
            let sp = TrussSpace::precomputed(&g);
            ablate(&t, d.short_name(), "truss", &sp);
        }
    }
    println!("\nPaper shape: plateaus dominate late iterations, so skipping idle");
    println!("r-cliques cuts total recomputation by a large factor at equal results.");
}

fn ablate<S: CliqueSpace>(t: &Table, name: &str, space_label: &str, space: &S) {
    let cfg = LocalConfig::default();
    let (with, time_with) = time(|| and(space, &cfg, &Order::Natural));
    let (without, time_without) = time(|| {
        let full_scan = AndOptions { notification: false, ..AndOptions::default() };
        and_opts(space, &cfg, &Order::Natural, full_scan).expect("an unarmed token never cancels")
    });
    assert_eq!(with.tau, without.tau);
    let saved = 1.0 - with.total_processed() as f64 / without.total_processed().max(1) as f64;
    t.row(&[
        name.to_string(),
        space_label.to_string(),
        "on".to_string(),
        format!("{}", with.sweeps),
        format!("{}", with.total_processed()),
        format!("{:.1}%", saved * 100.0),
        ms(time_with),
    ]);
    t.row(&[
        name.to_string(),
        space_label.to_string(),
        "off".to_string(),
        format!("{}", without.sweeps),
        format!("{}", without.total_processed()),
        "—".to_string(),
        ms(time_without),
    ]);
}
