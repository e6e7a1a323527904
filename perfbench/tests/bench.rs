//! The benchmark's own checks: deterministic counts repeat for a seed, and
//! every workload's inputs get their known verdicts.

use perfbench::layers::Tracer;
use perfbench::{kernel_loop, serve_mix, table1};

#[test]
fn table1_counts_repeat_for_a_seed() {
    let cfg = table1::config();
    let a = table1::targets(7);
    let b = table1::targets(7);
    assert_eq!(
        a.iter().map(|t| &*t.source).collect::<Vec<_>>(),
        b.iter().map(|t| &*t.source).collect::<Vec<_>>(),
        "same seed, same inputs"
    );
    let counts = |p: &[table1::Checked]| {
        p.iter()
            .map(|c| (c.records, c.warp_insns, c.races, c.instrumented_ppm))
            .collect::<Vec<_>>()
    };
    let first = table1::pass(&a, &cfg);
    assert!(first.iter().all(|c| c.ok), "every verdict is the known one");
    assert_eq!(counts(&first), counts(&table1::pass(&a, &cfg)));
}

#[test]
fn kernel_loop_verdicts_and_counts_repeat() {
    let shapes = kernel_loop::shapes();
    let cfg = kernel_loop::config();
    let mut w = kernel_loop::warm(&shapes, &cfg);
    let order = kernel_loop::order(shapes.len(), 3);
    let round = |w: &mut kernel_loop::Warm| {
        order
            .iter()
            .map(|&i| kernel_loop::launch(w, &shapes, i))
            .collect::<Vec<_>>()
    };
    let a = round(&mut w);
    let b = round(&mut w);
    assert!(a.iter().chain(&b).all(|l| l.ok), "known verdicts");
    assert!(
        a.iter()
            .all(|l| l.records < kernel_loop::QUEUE_CAPACITY as u64),
        "every launch fits in the detection queue"
    );
    let key = |r: &[kernel_loop::Launched]| {
        r.iter()
            .map(|l| (l.records, l.warp_insns, l.races))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
}

#[test]
fn serve_mix_requests_get_their_known_verdicts() {
    let sched = serve_mix::schedule(5, 80);
    assert_eq!(
        sched.iter().filter(|(k, _)| *k == "cold").count(),
        4,
        "one cold request per 20"
    );
    let server = barracuda_serve::Server::new(barracuda_serve::ServerConfig::default());
    let session = server.session().expect("open session");
    for (kind, t) in &sched {
        let p = perfbench::loadgen::Planned::from_target(kind, t, *kind == "streamed");
        let resp = session.submit_streamed(p.req.clone(), &mut |_| {});
        assert!(
            perfbench::loadgen::verdict_ok(&resp, t.expected_races),
            "{kind} {}: {resp:?}",
            t.name
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, sched.len() as u64);
}

#[test]
fn tracer_nests_spans() {
    let mut tr = Tracer::default();
    tr.span("outer", 1, |tr| {
        tr.span("inner", 1, |_| std::hint::black_box(2 + 2));
    });
    let s = tr.spans();
    assert_eq!(s.len(), 2);
    assert_eq!(s[1].parent, Some(0));
    assert!(s[0].secs() >= s[1].secs());
    assert_eq!(tr.calls("inner"), 1);
}
