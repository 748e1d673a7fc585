//! `serve-warm`: the compile server on a warm cache, open loop.
//!
//! The real server (`service::start`, 2 workers, memory-only cache)
//! runs in this process; the generator drives it over at most `nproc`
//! keep-alive connections, one thread each. Requests follow a fixed
//! schedule — request `i` is due at `start + i / rate` — and every
//! latency is measured from the due time, so a stall delays the
//! requests queued behind it too.
//!
//! The seeded mix: ~70% chain/conv `/compile` (zoo FFN and attention
//! chains at M=128 and 512 plus one conv block; ~1 in 10 names
//! `"machine": "h100_sxm"`), ~20% graph `/compile` (zoo, 2 layers,
//! M=128) and ~10% `/batch` of 8 specs with duplicates. Set-up sends
//! every distinct body once, so no search runs while timing.

use crate::layers::{self, PlanTotals};
use crate::report::{self, Report};
use crate::trace::Trace;
use crate::{machine, timed_setups, Args, MACHINE};
use flashfuser::cache::{PlanCache, PlanKey, DEFAULT_CAPACITY};
use flashfuser::core::codec::{decode_chain, encode_chain, encode_record};
use flashfuser::core::json::{self, JsonValue, ParseLimits};
use flashfuser::core::{MachineDescriptor, SearchConfig};
use flashfuser::graph::{ChainSpec, ConvChainSpec};
use flashfuser::serve::client::{self, ClientResponse, Connection};
use flashfuser::serve::http::{self, Request};
use flashfuser::serve::{Handler, ServeOptions, ServeStats, Server};
use flashfuser::service::{self, CompileService};
use flashfuser::tensor::rng::{derive_seed, SplitMix64};
use flashfuser::workloads::{find_model, large_model_zoo, model_zoo};
use flashfuser::{default_config_for, Compiler};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server worker threads.
const WORKERS: usize = 2;

/// Token counts of the chain requests.
const CHAIN_M: [usize; 2] = [128, 512];

/// Token count and depth of the graph requests.
const GRAPH_M: usize = 128;
const GRAPH_LAYERS: usize = 2;

/// The conv block (`ic, h, w, oc1, oc2, k1, k2`).
const CONV: [usize; 7] = [64, 56, 56, 256, 64, 1, 1];

/// Specs per `/batch` request, and distinct batch bodies in the mix.
const BATCH_SPECS: usize = 8;
const BATCH_BODIES: usize = 16;

/// Offered rates (requests/s): about 1/4 and 3/4 of the knee — about
/// 13k requests/s, where p50 latency starts to climb and the backlog
/// grows — measured on a 2-core x86 host with this mix (README.md).
/// Fixed here so every run and every commit offers the same load.
const LIGHT_RPS: f64 = 3000.0;
const HEAVY_RPS: f64 = 10000.0;

/// The rate ladder behind `serve_max_rps`, ascending.
const LADDER_RPS: [f64; 8] = [
    3000.0, 6000.0, 9000.0, 12000.0, 15000.0, 18000.0, 21000.0, 24000.0,
];

/// A rung passes when p99 latency (per window, see `Step::passed`) stays
/// within this limit ...
const P99_LIMIT_US: f64 = 2000.0;

/// ... and the generator's lateness does not grow by more than this
/// from the first to the last quarter of the rung (a growing backlog).
const GROWTH_LIMIT_US: f64 = 1000.0;

/// Shares of the measurement budget: light step, heavy step, ladder.
const LIGHT_SHARE: f64 = 0.5;
const HEAVY_SHARE: f64 = 0.25;
const LADDER_SHARE: f64 = 0.25;

/// Windows per step behind the end-to-end latency figures.
const WINDOWS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Chain,
    Graph,
    Batch,
}

/// One distinct request of the mix.
struct Template {
    class: Class,
    path: &'static str,
    body: Vec<u8>,
    /// The whole HTTP request as a client sends it.
    raw: Vec<u8>,
    /// Chains the request compiles (one, or the batch's specs).
    chains: Vec<ChainSpec>,
    /// `true` when the body names the machine explicitly.
    named_machine: bool,
    /// The library's answer, computed in-process after set-up.
    expected: Vec<u8>,
    /// The server's first answer (checked against `expected`); every
    /// later answer must repeat it byte for byte.
    served: Vec<u8>,
}

impl Template {
    fn new(
        class: Class,
        path: &'static str,
        body: String,
        chains: Vec<ChainSpec>,
        named_machine: bool,
    ) -> Template {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        Template {
            class,
            path,
            body: body.into_bytes(),
            raw: raw.into_bytes(),
            chains,
            named_machine,
            expected: Vec::new(),
            served: Vec::new(),
        }
    }
}

/// The distinct requests, grouped by class.
struct Mix {
    templates: Vec<Template>,
    plain: Vec<usize>,
    named: Vec<usize>,
    graphs: Vec<usize>,
    batches: Vec<usize>,
}

/// Every distinct fused chain of the zoo's 1-layer graphs at
/// [`CHAIN_M`], plus the conv block, as `(spec JSON, chain)`.
fn chain_specs(machine: &MachineDescriptor) -> Vec<(String, ChainSpec)> {
    let mut seen = HashSet::new();
    let mut specs = Vec::new();
    for model in model_zoo().into_iter().chain(large_model_zoo()) {
        for m in CHAIN_M {
            let (partition, _) =
                layers::partition(&mut Trace::disabled(), &model.graph(m, 1), machine);
            for chain in layers::fused_chains(&partition) {
                let spec = format!("{{\"chain\": {}}}", encode_chain(&chain));
                if seen.insert(spec.clone()) {
                    specs.push((spec, chain));
                }
            }
        }
    }
    let [ic, h, w, oc1, oc2, k1, k2] = CONV;
    let conv = ConvChainSpec::try_new(ic, h, w, oc1, oc2, k1, k2).expect("valid conv block");
    specs.push((
        format!("{{\"conv\": {{\"dims\": {CONV:?}}}}}"),
        conv.to_chain(),
    ));
    specs
}

fn build_mix(seed: u64, machine: &MachineDescriptor) -> Mix {
    let specs = chain_specs(machine);
    let mut templates = Vec::new();
    let mut push = |t: Template| {
        templates.push(t);
        templates.len() - 1
    };
    let mut plain = Vec::new();
    let mut named = Vec::new();
    for (spec, chain) in &specs {
        plain.push(push(Template::new(
            Class::Chain,
            "/compile",
            spec.clone(),
            vec![chain.clone()],
            false,
        )));
        let with_machine = format!("{}, \"machine\": \"{MACHINE}\"}}", &spec[..spec.len() - 1]);
        named.push(push(Template::new(
            Class::Chain,
            "/compile",
            with_machine,
            vec![chain.clone()],
            true,
        )));
    }
    let graphs = model_zoo()
        .into_iter()
        .chain(large_model_zoo())
        .map(|model| {
            let body = format!(
                "{{\"graph\": {{\"model\": \"{}\", \"m\": {GRAPH_M}, \"layers\": {GRAPH_LAYERS}}}}}",
                model.name
            );
            push(Template::new(Class::Graph, "/compile", body, Vec::new(), false))
        })
        .collect();
    // Batches: 5 distinct draws plus 3 repeats of them, shuffled.
    let mut rng = SplitMix64::new(derive_seed(seed, "batches"));
    let batches = (0..BATCH_BODIES)
        .map(|_| {
            let mut picks: Vec<usize> = (0..5).map(|_| rng.next_index(specs.len())).collect();
            while picks.len() < BATCH_SPECS {
                picks.push(picks[rng.next_index(5)]);
            }
            crate::shuffle(&mut picks, &mut rng);
            let items: Vec<&str> = picks.iter().map(|&i| specs[i].0.as_str()).collect();
            let body = format!("{{\"requests\": [{}]}}", items.join(", "));
            let chains = picks.iter().map(|&i| specs[i].1.clone()).collect();
            push(Template::new(Class::Batch, "/batch", body, chains, false))
        })
        .collect();
    Mix {
        templates,
        plain,
        named,
        graphs,
        batches,
    }
}

impl Mix {
    /// `n` template indices drawn from the seeded mix. The class mix is
    /// stratified — every block of 20 requests holds exactly 14 chain,
    /// 4 graph and 2 batch requests, in seeded order — so the class
    /// shares, and the percentiles that straddle classes, do not move
    /// with the seed.
    fn schedule(&self, seed: u64, label: &str, n: usize) -> Vec<usize> {
        const BLOCK: [Class; 20] = {
            let mut block = [Class::Chain; 20];
            let mut i = 14;
            while i < 20 {
                block[i] = if i < 18 { Class::Graph } else { Class::Batch };
                i += 1;
            }
            block
        };
        let mut rng = SplitMix64::new(derive_seed(seed, label));
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block = BLOCK;
            crate::shuffle(&mut block, &mut rng);
            for class in block {
                let group = match class {
                    Class::Chain if rng.next_bool(0.1) => &self.named,
                    Class::Chain => &self.plain,
                    Class::Graph => &self.graphs,
                    Class::Batch => &self.batches,
                };
                out.push(*rng.pick(group));
            }
        }
        out.truncate(n);
        out
    }
}

/// The library's answer to `t`: `encode_record` of the compiler's
/// record for chain and batch bodies, the in-process service's answer
/// for graph bodies.
fn expected_body(
    t: &Template,
    library: &Compiler,
    service: &CompileService,
    machine: &MachineDescriptor,
) -> Vec<u8> {
    match t.class {
        Class::Chain => {
            let record = if t.named_machine {
                library.compile_record_for_machine(&t.chains[0], machine)
            } else {
                library.compile_record_for(&t.chains[0])
            };
            encode_record(&record.expect("zoo chains compile")).into_bytes()
        }
        Class::Batch => {
            let items: Vec<String> = library
                .compile_batch_records(&t.chains)
                .iter()
                .map(|r| {
                    encode_record(r.as_ref().expect("zoo chains compile"))
                        .trim_end()
                        .to_string()
                })
                .collect();
            format!(
                "{{\"count\": {}, \"results\": [\n{}\n]}}\n",
                items.len(),
                items.join(",\n")
            )
            .into_bytes()
        }
        Class::Graph => service.handle(&request_of(t)).body,
    }
}

fn request_of(t: &Template) -> Request {
    Request {
        method: "POST".into(),
        path: t.path.into(),
        headers: Default::default(),
        body: t.body.clone(),
        keep_alive: true,
    }
}

/// A started server; dropping it shuts the server down and joins its
/// threads.
struct Running {
    server: Option<Server>,
    compiler: Arc<Compiler>,
    fill: Vec<std::io::Result<ClientResponse>>,
}

impl Running {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("running").addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Starts a server on a fresh compiler and sends every distinct body
/// once, filling the plan cache.
fn start_and_fill(mix: &Mix, machine: &MachineDescriptor) -> Running {
    let compiler = Arc::new(Compiler::new(machine.clone()));
    let options = ServeOptions {
        workers: WORKERS,
        ..ServeOptions::default()
    };
    let server = service::start(Arc::clone(&compiler), ("127.0.0.1", 0), options)
        .expect("bind a loopback port");
    let mut conn = Connection::open(server.addr()).expect("connect");
    let fill = mix
        .templates
        .iter()
        .map(|t| conn.request("POST", t.path, &t.body))
        .collect();
    Running {
        server: Some(server),
        compiler,
        fill,
    }
}

/// `body` with the digits of every `"feasible": N` member removed.
fn without_feasible(body: &[u8]) -> Vec<u8> {
    const KEY: &[u8] = b"\"feasible\": ";
    let mut out = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        if body[i..].starts_with(KEY) {
            out.extend_from_slice(KEY);
            i += KEY.len();
            while body.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
        } else {
            out.push(body[i]);
            i += 1;
        }
    }
    out
}

/// The body of a 200 answer to `t`, or why there is none.
fn ok_body<'r>(
    t: &Template,
    response: &'r std::io::Result<ClientResponse>,
) -> Result<&'r [u8], String> {
    match response {
        Err(e) => Err(format!("{}: transport error: {e}", t.path)),
        Ok(r) if r.status != 200 => Err(format!(
            "{}: status {}: {}",
            t.path,
            r.status,
            r.body_utf8()
        )),
        Ok(r) => Ok(&r.body),
    }
}

/// Checks the server's first answer to `t` against the library's and
/// keeps it as the answer every later request must repeat. Bodies that
/// differ only in the scan-order-dependent `feasible` count pass and
/// are reported as drift (`Ok(true)`).
fn check_fill(
    t: &mut Template,
    response: &std::io::Result<ClientResponse>,
) -> Result<bool, String> {
    let body = ok_body(t, response)?;
    let drift = *body != t.expected;
    if drift && without_feasible(body) != without_feasible(&t.expected) {
        return Err(format!(
            "{} body differs from the library's answer: {}",
            t.path,
            String::from_utf8_lossy(&t.body)
        ));
    }
    t.served = body.to_vec();
    Ok(drift)
}

/// `Ok` when `response` is a 200 repeating the server's first answer.
fn verdict(t: &Template, response: &std::io::Result<ClientResponse>) -> Result<(), String> {
    if ok_body(t, response)? == t.served.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "{} body changed between requests: {}",
            t.path,
            String::from_utf8_lossy(&t.body)
        ))
    }
}

/// One request of a load step.
#[derive(Debug, Clone)]
struct Sample {
    index: usize,
    class: Class,
    latency_us: f64,
    late_us: f64,
    backlog: usize,
    verdict: Result<(), String>,
}

/// One fixed-rate step of the open loop.
#[derive(Debug)]
struct Step {
    rate: f64,
    /// In schedule order.
    samples: Vec<Sample>,
}

impl Step {
    fn latencies(&self, class: Option<Class>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_us)
            .collect()
    }

    /// The median over [`WINDOWS`] consecutive windows of the step (by
    /// schedule position) of `stat` over each window's latencies: a
    /// transient stall of the host moves one window, not the result.
    fn windowed(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let size = self.samples.len().div_ceil(WINDOWS).max(1);
        let per_window: Vec<f64> = self
            .samples
            .chunks(size)
            .map(|w| stat(&w.iter().map(|s| s.latency_us).collect::<Vec<_>>()))
            .collect();
        report::median(&per_window)
    }

    fn late(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.late_us).collect()
    }

    fn backlog_max(&self) -> usize {
        self.samples.iter().map(|s| s.backlog).max().unwrap_or(0)
    }

    /// `true` when the generator fell further behind over the step:
    /// median lateness of the last quarter of requests exceeds the
    /// first quarter's by more than [`GROWTH_LIMIT_US`].
    fn backlog_grew(&self) -> bool {
        let q = self.samples.len() / 4;
        if q == 0 {
            return false;
        }
        let late =
            |part: &[Sample]| report::median(&part.iter().map(|s| s.late_us).collect::<Vec<_>>());
        late(&self.samples[self.samples.len() - q..]) - late(&self.samples[..q]) > GROWTH_LIMIT_US
    }

    /// `true` when the step met the latency limit without errors or a
    /// growing backlog. The limit applies per window, like the light
    /// step's figure: a rung lasts about a second, and one host stall
    /// of a few ms would otherwise fail it at any rate.
    fn passed(&self) -> bool {
        self.windowed(|w| report::quantile(w, 0.99)) <= P99_LIMIT_US
            && !self.backlog_grew()
            && self.samples.iter().all(|s| s.verdict.is_ok())
    }
}

/// Sends `schedule` at `rate` requests/s over `conns` keep-alive
/// connections, one generator thread each.
fn run_step(addr: SocketAddr, mix: &Mix, schedule: &[usize], rate: f64, conns: usize) -> Step {
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                // Connected before the first due time; `send` reconnects.
                let mut conn = Connection::open(addr).ok();
                let mut local = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= schedule.len() {
                        break;
                    }
                    let t = &mix.templates[schedule[index]];
                    let due = start + Duration::from_secs_f64(index as f64 / rate);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let response = send(&mut conn, addr, t);
                    let done = Instant::now();
                    let finished = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    let due_by_now = ((done - start).as_secs_f64() * rate) as usize + 1;
                    local.push(Sample {
                        index,
                        class: t.class,
                        latency_us: report::us(done - due),
                        late_us: report::us(sent.saturating_duration_since(due)),
                        backlog: due_by_now.min(schedule.len()).saturating_sub(finished),
                        verdict: verdict(t, &response),
                    });
                }
                samples.lock().expect("samples").extend(local);
            });
        }
    });
    let mut samples = samples.into_inner().expect("samples");
    samples.sort_by_key(|s| s.index);
    Step { rate, samples }
}

/// Counts every request of `step` as one operation, failed when its
/// response did not check out.
fn settle(step: &Step, report: &mut Report) {
    for sample in &step.samples {
        report.outcome(
            sample
                .verdict
                .clone()
                .map_err(|e| format!("serve-warm {} req/s {e}", step.rate)),
        );
    }
}

/// One request on the thread's keep-alive connection, reconnecting
/// after an error or a `Connection: close`.
fn send(
    conn: &mut Option<Connection>,
    addr: SocketAddr,
    t: &Template,
) -> std::io::Result<ClientResponse> {
    if conn.is_none() {
        *conn = Some(Connection::open(addr)?);
    }
    let outcome = conn
        .as_mut()
        .expect("open")
        .request("POST", t.path, &t.body);
    let close = match &outcome {
        Ok(r) => r
            .headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close")),
        Err(_) => true,
    };
    if close {
        *conn = None;
    }
    outcome
}

pub fn run(args: &Args, process_start: Instant, report: &mut Report) {
    let machine = machine();
    report.note("kernel", "none");
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    report.note("connections", conns);
    report.note("workers", WORKERS);
    let mut mix = build_mix(args.seed, &machine);
    let running = timed_setups(report, process_start, 3, || start_and_fill(&mix, &machine));

    // The library's answers, from an independent in-process compiler.
    let library = Arc::new(Compiler::new(machine.clone()));
    let service = CompileService::new(Arc::clone(&library), Arc::new(ServeStats::new()));
    for t in &mut mix.templates {
        t.expected = expected_body(t, &library, &service, &machine);
    }
    let mut drift = 0;
    for (t, response) in mix.templates.iter_mut().zip(&running.fill) {
        let outcome = check_fill(t, response).map(|drifted| drift += u64::from(drifted));
        report.outcome(outcome.map_err(|e| format!("serve-warm fill {e}")));
    }
    report.set(
        "core.search.record_drift",
        drift as f64,
        "count",
        mix.templates.len(),
    );

    let addr = running.addr();
    let before = running.compiler.cache_stats();
    let searches_before = running.compiler.searches_run();
    let budget = args.seconds;
    let step = |label: &str, rate: f64, seconds: f64| {
        let n = ((rate * seconds) as usize).max(20);
        run_step(addr, &mix, &mix.schedule(args.seed, label, n), rate, conns)
    };
    let light = step("light", LIGHT_RPS, budget * LIGHT_SHARE);
    settle(&light, report);
    let heavy = step("heavy", HEAVY_RPS, budget * HEAVY_SHARE);
    settle(&heavy, report);
    let rung_seconds = budget * LADDER_SHARE / LADDER_RPS.len() as f64;
    let mut rungs = 0;
    let mut max_rps = 0.0;
    for rate in LADDER_RPS {
        let rung = step(&format!("ladder/{rate}"), rate, rung_seconds);
        rungs += 1;
        let passed = rung.passed();
        println!(
            "rung {rate} req/s: p50 {:.0} p90 {:.0} p99 {:.0} (windowed {:.0}) us, late p99 {:.0} us, backlog max {}, grew {}, {}",
            report::quantile(&rung.latencies(None), 0.5),
            report::quantile(&rung.latencies(None), 0.9),
            report::quantile(&rung.latencies(None), 0.99),
            rung.windowed(|w| report::quantile(w, 0.99)),
            report::quantile(&rung.late(), 0.99),
            rung.backlog_max(),
            rung.backlog_grew(),
            if passed { "pass" } else { "fail" }
        );
        // Settled and dropped at once: how far the ladder climbs must
        // not change the process's peak memory.
        settle(&rung, report);
        if !passed {
            break;
        }
        max_rps = rate;
    }
    let after = running.compiler.cache_stats();
    let hits = after.hits() - before.hits();
    let lookups = hits + after.misses - before.misses;
    report.set(
        "cache.hit_rate",
        report::share(hits as f64, lookups as f64),
        "ratio",
        lookups as usize,
    );
    report.set(
        "cache.searches",
        (running.compiler.searches_run() - searches_before) as f64,
        "count",
        1,
    );

    let n = light.samples.len();
    report.set(
        "op_ms.typical",
        light.windowed(report::median) / 1e3,
        "ms",
        n,
    );
    let p95 = light.windowed(|w| report::quantile(w, 0.95));
    report.set("op_ms.p95", p95 / 1e3, "ms", n);
    for (name, s) in [("light", &light), ("heavy", &heavy)] {
        let l = s.latencies(None);
        report.set(
            &format!("serve.{name}.p50_us"),
            report::median(&l),
            "us",
            l.len(),
        );
        report.set(
            &format!("serve.{name}.p99_us"),
            report::quantile(&l, 0.99),
            "us",
            l.len(),
        );
        println!(
            "step {name} {} req/s: backlog max {}, grew {}",
            s.rate,
            s.backlog_max(),
            s.backlog_grew()
        );
    }
    report.set("serve_max_rps", max_rps, "1/s", rungs);
    let late: Vec<f64> = light.late().into_iter().chain(heavy.late()).collect();
    report.set(
        "serve.gen_late_us.p99",
        report::quantile(&late, 0.99),
        "us",
        late.len(),
    );
    report.set(
        "serve.backlog_max",
        light.backlog_max().max(heavy.backlog_max()) as f64,
        "count",
        late.len(),
    );
    server_stats(addr, report);

    // Modeled plans of the graph requests.
    let mut totals = PlanTotals::default();
    for &i in &mix.graphs {
        let graph = graph_of(&json_of(&mix.templates[i]));
        let plan = library.compile_graph(&graph).expect("zoo graphs compile");
        totals.add(&library, &plan);
    }
    totals.report(report, mix.graphs.len());

    if args.trace {
        traced(args, &machine, &mix, &library, &service, &light, report);
    }
    drop(running);
}

/// Queue wait and admission counters from `GET /stats`.
fn server_stats(addr: SocketAddr, report: &mut Report) {
    let doc = client::get(addr, "/stats")
        .ok()
        .and_then(|r| json::parse(r.body_utf8()).ok());
    let Some(doc) = doc else {
        report.outcome(Err("serve-warm: GET /stats failed".into()));
        return;
    };
    let field = |section: &str, key: &str| {
        doc.get(section)
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as f64
    };
    let waits = field("queue_wait_us", "count") as usize;
    report.set(
        "serve.queue_wait_us.p50",
        field("queue_wait_us", "p50"),
        "us",
        waits,
    );
    report.set(
        "serve.queue_wait_us.p99",
        field("queue_wait_us", "p99"),
        "us",
        waits,
    );
    report.set("serve.reused", field("admission", "reused"), "count", 1);
    report.set(
        "serve.rejected_busy",
        field("admission", "rejected_busy"),
        "count",
        1,
    );
}

fn json_of(t: &Template) -> JsonValue {
    let text = std::str::from_utf8(&t.body).expect("UTF-8 body");
    json::parse_with_limits(text, ParseLimits::untrusted()).expect("benchmark bodies parse")
}

/// The model graph a graph request lowers.
fn graph_of(doc: &JsonValue) -> flashfuser::graph::OpGraph {
    let name = doc
        .get("graph")
        .and_then(|g| g.get("model"))
        .and_then(JsonValue::as_str)
        .expect("graph body names a model");
    find_model(name)
        .expect("zoo model")
        .graph(GRAPH_M, GRAPH_LAYERS)
}

/// The chain one `/compile` or `/batch` spec decodes to.
fn decode_spec(spec: &JsonValue) -> ChainSpec {
    if let Some(chain) = spec.get("chain") {
        return decode_chain(chain).expect("benchmark chains decode");
    }
    let dims: Vec<usize> = spec
        .get("conv")
        .and_then(|c| c.get("dims"))
        .and_then(JsonValue::as_array)
        .expect("conv dims")
        .iter()
        .map(|d| d.as_u64().expect("integer dims") as usize)
        .collect();
    let [ic, h, w, oc1, oc2, k1, k2] = dims[..] else {
        panic!("conv dims have 7 entries")
    };
    ConvChainSpec::try_new(ic, h, w, oc1, oc2, k1, k2)
        .expect("valid conv block")
        .to_chain()
}

/// Replays the server's handling of `t` layer by layer: HTTP parse →
/// JSON parse → spec decode → (graph requests: lower → infer_shapes →
/// match_chains → partition) → per chain `PlanKey::derive` →
/// `PlanCache::get` → `encode_record`.
fn replica(
    trace: &mut Trace,
    t: &Template,
    cache: &PlanCache,
    machine: &MachineDescriptor,
    config: &SearchConfig,
) {
    let (request, _) = trace
        .span("serve.http_parse", |_| {
            http::parse_request(&t.raw, http::DEFAULT_MAX_BODY_BYTES)
        })
        .expect("well-formed request")
        .expect("complete request");
    let doc = trace
        .span("core.json.parse", |_| {
            let text = std::str::from_utf8(&request.body).expect("UTF-8 body");
            json::parse_with_limits(text, ParseLimits::untrusted())
        })
        .expect("benchmark bodies parse");
    match t.class {
        Class::Chain | Class::Batch => {
            let specs: Vec<&JsonValue> = match doc.get("requests").and_then(JsonValue::as_array) {
                Some(items) => items.iter().collect(),
                None => vec![&doc],
            };
            let chains: Vec<ChainSpec> = trace.span("core.codec.decode", |_| {
                specs.into_iter().map(decode_spec).collect()
            });
            let records: Vec<_> = chains
                .iter()
                .map(|chain| {
                    layers::lookup(trace, cache, chain, machine, config)
                        .1
                        .expect("warm cache")
                })
                .collect();
            for record in &records {
                trace.span("core.codec.encode", |_| encode_record(record));
            }
        }
        Class::Graph => {
            let graph = trace.span("workloads.lower", |_| graph_of(&doc));
            let (partition, _) = layers::partition(trace, &graph, machine);
            for chain in layers::fused_chains(&partition) {
                layers::lookup(trace, cache, &chain, machine, config)
                    .1
                    .expect("warm cache");
            }
        }
    }
}

/// In-process layer calls on a seeded sample of the mix, plus
/// `CompileService::handle` on the same requests.
fn traced(
    args: &Args,
    machine: &MachineDescriptor,
    mix: &Mix,
    library: &Compiler,
    service: &CompileService,
    light: &Step,
    report: &mut Report,
) {
    let config = default_config_for(machine);
    // A replica cache holding every record the mix needs.
    let cache = PlanCache::in_memory(DEFAULT_CAPACITY);
    let (mut matches, mut segments, mut fused) = (0, 0, 0);
    let mut chains: Vec<ChainSpec> = mix
        .templates
        .iter()
        .flat_map(|t| t.chains.clone())
        .collect();
    for &i in &mix.graphs {
        let (partition, m) = layers::partition(
            &mut Trace::disabled(),
            &graph_of(&json_of(&mix.templates[i])),
            machine,
        );
        matches += m;
        segments += partition.segments.len();
        fused += partition.fused_count();
        chains.extend(layers::fused_chains(&partition));
    }
    for chain in &chains {
        let record = library
            .compile_record_for(chain)
            .expect("zoo chains compile");
        cache.put(PlanKey::derive(chain, machine, &config), Arc::new(record));
    }

    let mut trace = Trace::new();
    let mut handle_us: [Vec<f64>; 3] = Default::default();
    let (mut spans_us, mut traced_us, mut replica_us) = (0.0, 0.0, 0.0);
    let deadline = Instant::now() + args.budget().mul_f64(LADDER_SHARE);
    let schedule = mix.schedule(args.seed, "trace", 100_000);
    let mut n = 0;
    for &i in &schedule {
        if n >= 200 && Instant::now() >= deadline {
            break;
        }
        n += 1;
        let t = &mix.templates[i];
        let mark = trace.mark();
        let t1 = Instant::now();
        replica(&mut trace, t, &cache, machine, &config);
        traced_us += report::us(t1.elapsed());
        spans_us += trace.top_level_us_since(mark);

        let t2 = Instant::now();
        replica(&mut Trace::disabled(), t, &cache, machine, &config);
        replica_us += report::us(t2.elapsed());

        let request = request_of(t);
        let t3 = Instant::now();
        service.handle(&request);
        handle_us[t.class as usize].push(report::us(t3.elapsed()));
    }
    report.note("traced_requests", n);
    layers::report_graph_layers(report, &trace, matches, segments, fused);
    for (span, metric) in [
        ("serve.http_parse", "serve.http_parse_us"),
        ("core.json.parse", "core.json.parse_us"),
        ("core.codec.encode", "core.codec.encode_us"),
    ] {
        let d = trace.durations_us(span);
        report.set(metric, report::median(&d), "us", d.len());
    }
    for (class, name) in [
        (Class::Chain, "chain"),
        (Class::Graph, "graph"),
        (Class::Batch, "batch"),
    ] {
        let d = &handle_us[class as usize];
        report.set(
            &format!("service.handle_us.{name}"),
            report::median(d),
            "us",
            d.len(),
        );
    }
    let chain_socket = light.latencies(Some(Class::Chain));
    report.set(
        "serve.shell_us",
        report::median(&chain_socket) - report::median(&handle_us[Class::Chain as usize]),
        "us",
        chain_socket.len(),
    );
    // The spans cover the in-process path; the socket latency adds the
    // shell (socket I/O, reactor, queue) that no public function
    // exposes, so it shows as unaccounted time.
    let socket_mean = report::mean(&light.latencies(None));
    report.set(
        "trace.unaccounted_share",
        1.0 - (spans_us / n as f64) / socket_mean,
        "ratio",
        n,
    );
    report.set(
        "trace.overhead_share",
        (traced_us - replica_us) / replica_us,
        "ratio",
        n,
    );
}
