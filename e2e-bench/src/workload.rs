//! The four workloads: what each sends, at which load, and why.
//!
//! Every workload runs two steps of equal length, `low` then `high`. For
//! the open-loop workloads a step is an arrival rate; for the closed-loop
//! ones it is the number of clients, each with one request outstanding on
//! its own connection. Inputs come from
//! the run seed; warm-up inputs come from separate streams, so warm-up
//! can never prefill the result cache with measured nets.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ntr_geom::{Layout, NetGenerator, Point};
use ntr_server::json::Json;

use crate::client::{self, Exchange, LineReader};
use crate::rng::{arrivals, stream_seed, Rng, Zipf};

/// Warm-up length before the measured steps.
const WARMUP: Duration = Duration::from_secs(1);

/// Distinct nets `repeat_cpr` draws from: twice the server's default
/// 1024-entry result cache.
const CATALOG: usize = 2048;

/// Session editors close and re-create their session this often.
const CYCLES_PER_SESSION: u32 = 100;

/// Client connections open at once for connection-per-request traffic.
const CPR_SLOTS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop on one connection, unique small nets, mixed algorithms.
    SmallOpen,
    /// Open loop, a new connection per request, Zipf-repeated nets.
    RepeatCpr,
    /// Closed-loop session editors: create, then mutate + reroute cycles.
    SessionEdit,
    /// Closed-loop batch of unique 100-pin nets with pruned candidates.
    LargeBatch,
}

/// One load level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// `low` or `high`.
    pub name: &'static str,
    /// Requests per second (open loop) or clients, each with one
    /// request outstanding on its own connection (closed loop).
    pub level: f64,
}

const fn step(name: &'static str, level: f64) -> Step {
    Step { name, level }
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::SmallOpen,
        Workload::RepeatCpr,
        Workload::SessionEdit,
        Workload::LargeBatch,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallOpen => "small_open",
            Workload::RepeatCpr => "repeat_cpr",
            Workload::SessionEdit => "session_edit",
            Workload::LargeBatch => "large_batch",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `low` and `high` steps.
    #[must_use]
    pub fn steps(self) -> [Step; 2] {
        match self {
            // high keeps two workers ~50% busy with this mix: queueing
            // shows, yet stays stable while the host's speed drifts.
            Workload::SmallOpen => [step("low", 100.0), step("high", 350.0)],
            // Each connection waits out the server's 25 ms accept poll, so
            // two client connections saturate near 80 req/s. The periods
            // (67 and 29 ms) are no multiple of the poll's, so arrivals
            // sweep its whole phase.
            Workload::RepeatCpr => [step("low", 15.0), step("high", 35.0)],
            Workload::SessionEdit | Workload::LargeBatch => [step("low", 1.0), step("high", 2.0)],
        }
    }

    /// Only every `n`-th distinct route answer is re-derived in-process
    /// (the 100-pin routes would otherwise dominate the run's length).
    #[must_use]
    pub fn verify_stride(self) -> usize {
        match self {
            Workload::LargeBatch => 8,
            _ => 1,
        }
    }

    /// How many answered requests the traced run replays in-process
    /// (each route is computed twice there: plain and timed).
    #[must_use]
    pub fn replay_limit(self) -> usize {
        match self {
            Workload::SmallOpen => 200,
            Workload::RepeatCpr => 300,
            Workload::SessionEdit => 400,
            Workload::LargeBatch => 16,
        }
    }

    /// A small route request a freshly started server answers first; its
    /// reply time is the set-up time.
    #[must_use]
    pub fn setup_request(seed: u64) -> String {
        route_line(
            0,
            "ldrg",
            "moment",
            &net(stream_seed(seed, "setup", 0), 10),
            None,
        )
    }

    /// Drives warm-up traffic (the `low` step for [`WARMUP`], from the
    /// warm-up input streams) and discards its results.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn warm_up(self, addr: SocketAddr, seed: u64) -> std::io::Result<()> {
        let low = self.steps()[0];
        self.drive(addr, seed, "warm", &[low], WARMUP.as_secs_f64())
            .map(drop)
    }

    /// Drives the measured steps, `step_secs` each, and returns every
    /// exchange.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn measure(
        self,
        addr: SocketAddr,
        seed: u64,
        step_secs: f64,
    ) -> std::io::Result<Vec<Exchange>> {
        self.drive(addr, seed, "measure", &self.steps(), step_secs)
    }

    /// Drives only the `high` step of [`Workload::measure`], with the
    /// same inputs.
    ///
    /// # Errors
    ///
    /// Returns connection errors.
    pub fn measure_high(
        self,
        addr: SocketAddr,
        seed: u64,
        step_secs: f64,
    ) -> std::io::Result<Vec<Exchange>> {
        self.drive(addr, seed, "measure", &self.steps()[1..], step_secs)
    }

    /// Runs `steps` in order, `step_secs` each, with inputs from the
    /// streams of `phase`.
    fn drive(
        self,
        addr: SocketAddr,
        seed: u64,
        phase: &str,
        steps: &[Step],
        step_secs: f64,
    ) -> std::io::Result<Vec<Exchange>> {
        let mut out = Vec::new();
        match self {
            Workload::SmallOpen | Workload::RepeatCpr => {
                let stream = match self {
                    Workload::SmallOpen => Some(client::connect(addr)?),
                    _ => None,
                };
                let mut first_id = 1;
                for (i, step) in steps.iter().enumerate() {
                    let tag = format!("{phase}-{}", step.name);
                    let (offsets, lines) =
                        self.open_requests(seed, &tag, *step, step_secs, first_id);
                    let count = lines.len() as u64;
                    let start = Instant::now() + Duration::from_millis(10);
                    out.extend(match &stream {
                        Some(stream) => {
                            client::open_loop(stream, i, start, &offsets, lines, first_id)?
                        }
                        None => client::open_loop_per_request(
                            addr, i, start, &offsets, &lines, CPR_SLOTS,
                        ),
                    });
                    first_id += count;
                }
            }
            Workload::SessionEdit | Workload::LargeBatch => {
                let mut clients: Vec<Client> = Vec::new();
                for (i, step) in steps.iter().enumerate() {
                    while clients.len() < step.level as usize {
                        let lane = clients.len();
                        let script = if self == Workload::SessionEdit {
                            let editor_seed =
                                stream_seed(seed, &format!("{phase}-editor"), lane as u64);
                            Script::Edit(Editor::new(editor_seed))
                        } else {
                            Script::Batch {
                                seed,
                                tag: format!("{phase}-batch"),
                            }
                        };
                        clients.push(Client::new(addr, lane, script)?);
                    }
                    let stop_at = Instant::now() + Duration::from_secs_f64(step_secs);
                    let per_client: Vec<Vec<Exchange>> = std::thread::scope(|s| {
                        let handles: Vec<_> = clients
                            .iter_mut()
                            .map(|c| {
                                s.spawn(move || {
                                    let mut mine = Vec::new();
                                    c.run(i, stop_at, &mut mine);
                                    mine
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| h.join().expect("closed-loop client panicked"))
                            .collect()
                    });
                    out.extend(per_client.into_iter().flatten());
                }
            }
        }
        Ok(out)
    }

    /// Arrival offsets and request lines of one open-loop step (inputs
    /// from stream `tag`); request `i` carries id `first_id + i`.
    /// Warm-up steps of `repeat_cpr` draw nets outside its catalog.
    fn open_requests(
        self,
        seed: u64,
        tag: &str,
        step: Step,
        secs: f64,
        first_id: u64,
    ) -> (Vec<Duration>, Vec<String>) {
        let count = (step.level * secs).round() as usize;
        let mut rng = Rng::new(stream_seed(seed, &format!("{}-{tag}", self.name()), 0));
        let offsets = if self == Workload::SmallOpen {
            arrivals(&mut rng, count, secs)
        } else {
            // Evenly spaced from a seeded phase: with two connections,
            // Poisson bursts would queue requests behind busy connections
            // and measure the client's own queue.
            let phase = rng.unit();
            (0..count)
                .map(|i| (i as f64 + phase) / step.level)
                .collect()
        }
        .into_iter()
        .map(Duration::from_secs_f64)
        .collect();
        let zipf = Zipf::new(CATALOG, 1.0);
        // Exactly a quarter of each kind, in random order.
        let mut kinds: Vec<u64> = (0..count as u64).map(|i| i % 4).collect();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let lines = (0..count as u64)
            .map(|i| {
                let id = first_id + i;
                match self {
                    Workload::SmallOpen => {
                        let pins = |size| net(stream_seed(seed, &format!("small-{tag}"), i), size);
                        match kinds[i as usize] {
                            0 => route_line(id, "ldrg", "moment", &pins(20), None),
                            1 => route_line(id, "h1", "moment", &pins(20), None),
                            2 => route_line(id, "ert-ldrg", "moment", &pins(20), None),
                            _ => route_line(id, "ldrg", "transient-fast", &pins(10), None),
                        }
                    }
                    _ if tag.starts_with("warm") => route_line(
                        id,
                        "ldrg",
                        "moment",
                        &net(stream_seed(seed, tag, i), 20),
                        None,
                    ),
                    _ => {
                        let rank = zipf.sample(&mut rng) as u64;
                        route_line(
                            id,
                            "ldrg",
                            "moment",
                            &net(stream_seed(seed, "catalog", rank), 20),
                            None,
                        )
                    }
                }
            })
            .collect();
        (offsets, lines)
    }
}

/// A uniform random net of `size` pins in the paper's 10 mm square
/// (1 µm grid, no coincident pins).
#[must_use]
pub fn net(seed: u64, size: usize) -> Vec<Point> {
    NetGenerator::new(Layout::date94(), seed)
        .random_net(size)
        .expect("nets of two or more pins always generate")
        .pins()
        .to_vec()
}

fn pins_json(pins: &[Point]) -> Json {
    Json::Arr(
        pins.iter()
            .map(|p| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]))
            .collect(),
    )
}

/// A `route` request line.
#[must_use]
pub fn route_line(
    id: u64,
    algorithm: &str,
    oracle: &str,
    pins: &[Point],
    pruned_k: Option<usize>,
) -> String {
    let mut params = vec![("oracle", Json::str(oracle))];
    if let Some(k) = pruned_k {
        params.push((
            "candidates",
            Json::obj(vec![
                ("mode", Json::str("pruned")),
                ("k", Json::Num(k as f64)),
            ]),
        ));
    }
    Json::obj(vec![
        ("op", Json::str("route")),
        ("id", Json::Num(id as f64)),
        ("algorithm", Json::str(algorithm)),
        ("params", Json::obj(params)),
        ("pins", pins_json(pins)),
    ])
    .to_line()
}

/// A `large_batch` request: a unique 100-pin net, pruned LDRG at moment
/// fidelity.
fn batch_line(seed: u64, tag: &str, id: u64) -> String {
    route_line(
        id,
        "ldrg",
        "moment",
        &net(stream_seed(seed, tag, id), 100),
        Some(8),
    )
}

/// A closed-loop client: one connection, one request outstanding, the
/// next request sent as soon as the previous reply arrived.
struct Client {
    lane: usize,
    stream: TcpStream,
    reader: LineReader,
    next_id: u64,
    /// Set after a failed request: a session editor's view of its
    /// session can no longer be trusted, so the client stops.
    broken: bool,
    script: Script,
}

/// What a [`Client`] sends.
enum Script {
    /// Unique `large_batch` nets from input stream `tag`.
    Batch { seed: u64, tag: String },
    /// Session edits.
    Edit(Editor),
}

impl Client {
    fn new(addr: SocketAddr, lane: usize, script: Script) -> std::io::Result<Self> {
        let stream = client::connect(addr)?;
        let reader = LineReader::new(&stream)?;
        Ok(Self {
            lane,
            stream,
            reader,
            // Ids are unique per run: one block per client.
            next_id: 1 + lane as u64 * 1_000_000_000,
            broken: false,
            script,
        })
    }

    /// Sends the line `make(id)` (due at `due`) and returns the reply
    /// when it is `ok`.
    fn send(
        &mut self,
        step: usize,
        due: Instant,
        make: impl FnOnce(u64) -> String,
        out: &mut Vec<Exchange>,
    ) -> Option<Json> {
        let id = self.next_id;
        self.next_id += 1;
        let x = client::request(
            &mut self.stream,
            &mut self.reader,
            step,
            self.lane,
            due,
            make(id),
        );
        let reply = x
            .reply_json()
            .filter(|r| r.get("ok") == Some(&Json::Bool(true)));
        out.push(x);
        if reply.is_none() {
            self.broken = true;
        }
        reply
    }

    /// Sends until `stop_at`.
    fn run(&mut self, step: usize, stop_at: Instant, out: &mut Vec<Exchange>) {
        let mut due = Instant::now();
        while !self.broken && Instant::now() < stop_at {
            due = match &mut self.script {
                Script::Batch { seed, tag } => {
                    let (seed, tag) = (*seed, tag.clone());
                    self.send(step, due, |id| batch_line(seed, &tag, id), out);
                    Instant::now()
                }
                Script::Edit(_) => self.edit_cycle(step, due, out),
            };
        }
    }

    fn editor(&mut self) -> &mut Editor {
        match &mut self.script {
            Script::Edit(editor) => editor,
            Script::Batch { .. } => unreachable!("only session clients edit"),
        }
    }

    /// Sends one session op.
    fn session_op(
        &mut self,
        step: usize,
        due: Instant,
        fields: Vec<(&str, Json)>,
        out: &mut Vec<Exchange>,
    ) -> Option<Json> {
        self.send(
            step,
            due,
            |id| {
                let mut all = vec![("id", Json::Num(id as f64))];
                all.extend(fields);
                Json::obj(all).to_line()
            },
            out,
        )
    }

    /// One mutate + reroute cycle (with a create first when no session
    /// is open, and a close every 100 cycles). Returns when the last
    /// reply arrived: the next request's due time.
    fn edit_cycle(&mut self, step: usize, mut due: Instant, out: &mut Vec<Exchange>) -> Instant {
        let session = match self.editor().session {
            Some(s) => s,
            None => {
                let pins = self.editor().next_net();
                let created = self.session_op(
                    step,
                    due,
                    vec![
                        ("op", Json::str("session.create")),
                        ("algorithm", Json::str("ldrg")),
                        ("pins", pins_json(&pins)),
                    ],
                    out,
                );
                due = Instant::now();
                let Some(handle) = created.and_then(|r| r.get("session")?.as_f64()) else {
                    self.broken = true;
                    return due;
                };
                let editor = self.editor();
                editor.pins = pins;
                editor.session = Some(handle as u64);
                handle as u64
            }
        };
        let (delta, moved) = self.editor().delta();
        let session_json = Json::Num(session as f64);
        let mutated = self.session_op(
            step,
            due,
            vec![
                ("op", Json::str("session.mutate")),
                ("session", session_json.clone()),
                ("ops", Json::Arr(vec![delta])),
            ],
            out,
        );
        due = Instant::now();
        if mutated.is_none() {
            return due;
        }
        let editor = self.editor();
        match moved {
            (Some(pin), p) => editor.pins[pin] = p,
            (None, p) => editor.pins.push(p),
        }
        let rerouted = self.session_op(
            step,
            due,
            vec![
                ("op", Json::str("session.reroute")),
                ("session", session_json.clone()),
            ],
            out,
        );
        due = Instant::now();
        if rerouted.is_some() {
            let editor = self.editor();
            editor.cycles += 1;
            if editor.cycles.is_multiple_of(CYCLES_PER_SESSION) {
                editor.session = None;
                self.session_op(
                    step,
                    due,
                    vec![
                        ("op", Json::str("session.close")),
                        ("session", session_json),
                    ],
                    out,
                );
                due = Instant::now();
            }
        }
        due
    }
}

/// The state of one interactive editor of a live net: it opens a 30-pin
/// session, then runs mutate + reroute cycles (every tenth mutation an
/// `add_pin`, the others a `move_pin` by at most 50 µm), and re-creates
/// the session every 100 cycles.
struct Editor {
    rng: Rng,
    pins: Vec<Point>,
    session: Option<u64>,
    cycles: u32,
    sessions_opened: u64,
}

impl Editor {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed),
            pins: Vec::new(),
            session: None,
            cycles: 0,
            sessions_opened: 0,
        }
    }

    /// The net of the next session.
    fn next_net(&mut self) -> Vec<Point> {
        self.sessions_opened += 1;
        net(
            stream_seed(self.rng.next_u64(), "session-net", self.sessions_opened),
            30,
        )
    }

    /// The next delta op, and which pin it moves (`None` = a new pin) to
    /// where. The `add_pin`s come on a fixed beat, so every run does the
    /// same share of scratch reroutes.
    fn delta(&mut self) -> (Json, (Option<usize>, Point)) {
        let point = |p: Point| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]);
        if self.cycles % 10 == 9 {
            loop {
                let p = Point::new(
                    self.rng.range(0, 10_000) as f64,
                    self.rng.range(0, 10_000) as f64,
                );
                if !self.pins.contains(&p) {
                    let op = Json::obj(vec![("op", Json::str("add_pin")), ("at", point(p))]);
                    return (op, (None, p));
                }
            }
        }
        loop {
            let pin = 1 + self.rng.below(self.pins.len() as u64 - 1) as usize;
            let old = self.pins[pin];
            let moved = Point::new(
                (old.x + self.rng.range(-50, 50) as f64).clamp(0.0, 10_000.0),
                (old.y + self.rng.range(-50, 50) as f64).clamp(0.0, 10_000.0),
            );
            // A move onto any pin, its own spot included, is redrawn.
            if !self.pins.contains(&moved) {
                let op = Json::obj(vec![
                    ("op", Json::str("move_pin")),
                    ("pin", Json::Num(pin as f64)),
                    ("to", point(moved)),
                ]);
                return (op, (Some(pin), moved));
            }
        }
    }
}
