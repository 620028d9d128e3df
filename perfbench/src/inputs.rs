//! Seeded workload inputs: travel query texts over the calibrated
//! world's four services. The server only ever sees the generated
//! texts; the seed decides every constant in them.

use mdq_model::rng::Rng;
use std::collections::HashSet;

/// One generated query.
#[derive(Clone, Debug)]
pub struct Query {
    pub text: String,
    pub k: u64,
    /// Service atoms in the query (3 or 4).
    pub atoms: usize,
}

#[derive(Clone, Copy)]
enum Shape {
    ConfWeatherFlight,
    ConfWeatherHotel,
    ConfFlightHotel,
    All,
}

impl Shape {
    fn has_weather(self) -> bool {
        !matches!(self, Shape::ConfFlightHotel)
    }
    fn has_flight(self) -> bool {
        !matches!(self, Shape::ConfWeatherHotel)
    }
    fn has_hotel(self) -> bool {
        !matches!(self, Shape::ConfWeatherFlight)
    }
    fn atoms(self) -> usize {
        if matches!(self, Shape::All) {
            4
        } else {
            3
        }
    }
}

/// The constants of one template draw.
struct Draw {
    shape: Shape,
    topic: &'static str,
    /// Days after 2007/3/14 where the date window opens.
    offset: u32,
    /// Window length in days.
    width: u32,
    temp: u32,
    budget: u32,
    k: u64,
}

fn render(d: &Draw) -> Query {
    let mut head = vec!["Conf", "City"];
    let mut atoms = vec![format!("conf('{}', Conf, Start, End, City)", d.topic)];
    let mut preds = vec![
        format!("Start >= '2007/3/14' + {}", d.offset),
        format!("End <= '2007/3/14' + {}", d.offset + d.width),
    ];
    if d.shape.has_weather() {
        atoms.push("weather(City, Temp, Start)".to_string());
        preds.push(format!("Temp >= {}", d.temp));
    }
    if d.shape.has_flight() {
        head.push("FPrice");
        atoms.push("flight('Milano', City, Start, End, ST, ET, FPrice)".to_string());
    }
    if d.shape.has_hotel() {
        head.extend(["HPrice", "Hotel"]);
        atoms.push("hotel(Hotel, City, 'luxury', Start, End, HPrice)".to_string());
    }
    preds.push(match (d.shape.has_flight(), d.shape.has_hotel()) {
        (true, true) => format!("FPrice + HPrice < {}.0", d.budget),
        (true, false) => format!("FPrice < {}.0", d.budget),
        _ => format!("HPrice < {}.0", d.budget),
    });
    Query {
        text: format!(
            "q({}) :- {}, {}.",
            head.join(", "),
            atoms.join(", "),
            preds.join(", ")
        ),
        k: d.k,
        atoms: d.shape.atoms(),
    }
}

/// The `(shape, k)` cycle fresh templates follow, so every seed and
/// every stretch of a run sees the same mix: per round, one 4-atom
/// template for each k in 3..=10 and one of each 3-atom shape at
/// k = 3 + round. Optimizer cost grows with k, so a seeded draw of k
/// would move the medians between seeds; 4-atom templates are 8 of every
/// 11, so the median round trip sits well inside the 4-atom mode.
fn schedule() -> Vec<(Shape, u64)> {
    let mut slots = Vec::new();
    for round in 0..3 {
        slots.extend((3..=10).map(|k| (Shape::All, k)));
        for shape in [
            Shape::ConfWeatherFlight,
            Shape::ConfWeatherHotel,
            Shape::ConfFlightHotel,
        ] {
            slots.push((shape, 3 + round));
        }
    }
    slots
}

/// An endless stream of distinct templates: no `(text, k)` pair is ever
/// drawn twice, so each one misses a plan cache that has not seen it.
/// Shapes and k follow [`schedule`] and one slot in five asks for the
/// 'AI' topic (8 conferences instead of 71); the remaining constants are
/// drawn from the seed.
pub struct TemplateGen {
    rng: Rng,
    slots: Vec<(Shape, u64)>,
    next: usize,
    seen: HashSet<(String, u64)>,
}

impl TemplateGen {
    /// `stream` separates the independent streams one seed feeds.
    pub fn new(seed: u64, stream: u64) -> Self {
        TemplateGen {
            rng: Rng::new(mdq_model::rng::splitmix64(seed ^ stream.rotate_left(32))),
            slots: schedule(),
            next: 0,
            seen: HashSet::new(),
        }
    }

    /// A never-drawn template of any shape.
    pub fn fresh(&mut self) -> Query {
        loop {
            let draw = self.draw();
            if let Some(q) = self.admit(render(&draw)) {
                self.next += 1;
                return q;
            }
        }
    }

    /// Two never-drawn templates of one shape that differ only in their
    /// budget constant: equal optimizer work, distinct plan-cache keys.
    pub fn fresh_twins(&mut self) -> (Query, Query) {
        loop {
            let mut draw = self.draw();
            if let Some(a) = self.admit(render(&draw)) {
                loop {
                    draw.budget += 1;
                    if let Some(b) = self.admit(render(&draw)) {
                        self.next += 1;
                        return (a, b);
                    }
                }
            }
        }
    }

    /// Constants for the current slot (callers advance it once a draw
    /// is admitted, so collisions cannot skew the mix).
    fn draw(&mut self) -> Draw {
        let (shape, k) = self.slots[self.next % self.slots.len()];
        let budget = match (shape.has_flight(), shape.has_hotel()) {
            (true, true) => self.rng.range_u64(900, 2600),
            (true, false) => self.rng.range_u64(300, 1400),
            _ => self.rng.range_u64(500, 1500),
        } as u32;
        Draw {
            shape,
            topic: if self.next % 5 == 4 { "AI" } else { "DB" },
            offset: self.rng.range_u64(0, 30) as u32,
            width: self.rng.range_u64(120, 200) as u32,
            temp: self.rng.range_u64(10, 30) as u32,
            budget,
            k,
        }
    }

    /// A never-drawn 4-atom template over `topic`'s conferences in
    /// cities at least `temp` degrees warm, with a seeded budget: the
    /// overlapping shape standing queries register.
    pub fn standing(&mut self, topic: &'static str, temp: u32, k: u64) -> Query {
        loop {
            let draw = Draw {
                shape: Shape::All,
                topic,
                offset: 0,
                width: 180,
                temp,
                budget: 700 + 5 * self.rng.range_u64(0, 100) as u32,
                k,
            };
            if let Some(q) = self.admit(render(&draw)) {
                return q;
            }
        }
    }

    /// A never-drawn 4-atom template over the 'DB' conferences starting
    /// `offset..offset + width` days after 2007/3/14, every temperature
    /// admitted: a date slice of the world whose cities (beyond day 40,
    /// the cool ones) no hot-city subscription pins.
    pub fn date_slice(&mut self, offset: u32, width: u32, k: u64) -> Query {
        loop {
            let draw = Draw {
                shape: Shape::All,
                topic: "DB",
                offset,
                width,
                temp: 0,
                budget: 1500 + 5 * self.rng.range_u64(0, 100) as u32,
                k,
            };
            if let Some(q) = self.admit(render(&draw)) {
                return q;
            }
        }
    }

    fn admit(&mut self, q: Query) -> Option<Query> {
        self.seen.insert((q.text.clone(), q.k)).then_some(q)
    }
}
