//! Workloads: the generated data, the fixed operation scripts each
//! connection replays, and the closed-form answer counts with the update
//! ledger that adjusts them.
//!
//! Every script is a pure function of the workload seed. A query round
//! has the same templates, classes and strategies in the same order for
//! every seed; only the constants differ. An update round leaves the store
//! exactly as it found it, so rounds repeat for as long as a run lasts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::lubm::{LubmConfig, NS_DATA, NS_UB};

pub const STRATEGIES: [&str; 4] = [
    "saturation",
    "reformulation",
    "interval",
    "backward-chaining",
];

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const RDFS_DOMAIN: &str = "http://www.w3.org/2000/01/rdf-schema#domain";

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub lubm: LubmConfig,
    /// `ReasoningConfig::name()` of the server's store.
    pub config: &'static str,
    /// The per-query strategies queries name (`None`: the store default).
    pub strategies: Vec<Option<&'static str>>,
    /// Query connections in the query phase.
    pub query_conns: usize,
    /// Alternate one update round alone with one query round on every
    /// connection (query workloads); otherwise one writer runs beside one
    /// reader for the whole run.
    pub alternate: bool,
    /// Register the three views (update workloads).
    pub views: bool,
    /// The tail percentile of each class (lookup, scan, update). Each lies
    /// inside one mode of that class's distribution; README explains.
    pub tails: [f64; 3],
}

impl Workload {
    pub fn tail(&self, class: Class) -> f64 {
        self.tails[class as usize]
    }
}

impl Workload {
    pub fn by_name(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let lubm = |universities| {
            if smoke {
                LubmConfig {
                    universities: 2,
                    departments: 3,
                    students_per_department: 20,
                    faculty_per_department: 8,
                    courses_per_department: 6,
                    publications_per_faculty: 2,
                    seed,
                }
            } else {
                LubmConfig {
                    seed,
                    ..LubmConfig::scaled(universities)
                }
            }
        };
        let update = |name, universities, tails| Workload {
            name,
            lubm: lubm(universities),
            config: "saturation(counting)",
            strategies: vec![None],
            query_conns: 1,
            alternate: false,
            views: true,
            tails,
        };
        Some(match name {
            "lubm4-query" => Workload {
                name: "lubm4-query",
                lubm: lubm(4),
                config: "adaptive",
                strategies: STRATEGIES.iter().map(|s| Some(*s)).collect(),
                query_conns: 2,
                alternate: true,
                views: false,
                tails: [0.99, 0.97, 0.90],
            },
            "lubm4-update" => update("lubm4-update", 4, [0.95, 0.90, 0.90]),
            "lubm1-update" => update("lubm1-update", 1, [0.95, 0.98, 0.90]),
            _ => return None,
        })
    }
}

pub fn ub(local: &str) -> String {
    format!("<{NS_UB}{local}>")
}

fn data(local: &str) -> String {
    format!("<{NS_DATA}{local}>")
}

/// Operation class: each is reported on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Lookup,
    Scan,
    Update,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Lookup => "lookup",
            Class::Scan => "scan",
            Class::Update => "update",
        }
    }
}

/// The LUBM query shapes. Q1, Q3, Q4, Q5 and Q7 bind a constant and return
/// at most a few hundred rows; the others are scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tpl {
    Q1,
    Q3,
    Q4,
    Q5,
    Q7,
    Q2,
    Q6,
    Q8,
    Q9,
    Q10,
}

pub const LOOKUPS: [Tpl; 5] = [Tpl::Q1, Tpl::Q3, Tpl::Q4, Tpl::Q5, Tpl::Q7];
pub const SCANS: [Tpl; 5] = [Tpl::Q2, Tpl::Q6, Tpl::Q8, Tpl::Q9, Tpl::Q10];

impl Tpl {
    pub fn class(self) -> Class {
        if LOOKUPS.contains(&self) {
            Class::Lookup
        } else {
            Class::Scan
        }
    }

    pub fn sparql(self, c: &str) -> String {
        let body = match self {
            Tpl::Q1 => format!("SELECT DISTINCT ?x WHERE {{ ?x ub:takesCourse {c} }}"),
            Tpl::Q3 => format!(
                "SELECT DISTINCT ?p WHERE {{ ?p a ub:Publication . ?p ub:publicationAuthor {c} }}"
            ),
            Tpl::Q4 => {
                format!("SELECT DISTINCT ?x WHERE {{ ?x a ub:Professor . ?x ub:worksFor {c} }}")
            }
            Tpl::Q5 => format!("SELECT DISTINCT ?x WHERE {{ ?x ub:memberOf {c} }}"),
            Tpl::Q7 => format!(
                "SELECT DISTINCT ?x ?y WHERE {{ ?x a ub:Student . ?x ub:takesCourse ?y . {c} ub:teacherOf ?y }}"
            ),
            Tpl::Q2 => "SELECT DISTINCT ?x WHERE { ?x a ub:Person }".into(),
            Tpl::Q6 => "SELECT DISTINCT ?x WHERE { ?x a ub:Student }".into(),
            Tpl::Q8 => format!(
                "SELECT DISTINCT ?x ?d WHERE {{ ?x a ub:Student . ?x ub:memberOf ?d . ?d ub:subOrganizationOf {c} }}"
            ),
            Tpl::Q9 => "SELECT DISTINCT ?x ?y ?z WHERE { ?x a ub:Student . ?y a ub:Faculty . ?x ub:advisor ?y . ?y ub:teacherOf ?z . ?x ub:takesCourse ?z }".into(),
            Tpl::Q10 => "SELECT DISTINCT ?x ?u WHERE { ?x a ub:GraduateStudent . ?x ub:degreeFrom ?u }".into(),
        };
        format!("PREFIX ub: <{NS_UB}>\n{body}")
    }
}

/// What a template's constant names.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Constant {
    None,
    Course {
        u: usize,
        d: usize,
        c: usize,
    },
    Prof {
        u: usize,
        d: usize,
        i: usize,
    },
    Dept {
        u: usize,
        d: usize,
    },
    Univ {
        u: usize,
    },
    /// An IRI the store has never held.
    Absent(String),
}

impl Constant {
    pub fn iri(&self) -> String {
        match self {
            Constant::None => String::new(),
            Constant::Course { u, d, c } => data(&format!("u{u}/d{d}/course{c}")),
            Constant::Prof { u, d, i } => data(&format!("u{u}/d{d}/prof{i}")),
            Constant::Dept { u, d } => data(&format!("u{u}/d{d}")),
            Constant::Univ { u } => data(&format!("u{u}")),
            Constant::Absent(s) => data(s),
        }
    }
}

/// One query request of a script.
#[derive(Debug, Clone)]
pub struct QueryOp {
    pub tpl: Tpl,
    pub constant: Constant,
    pub strategy: Option<&'static str>,
    pub sparql: String,
}

/// Popularity-skewed sampler: rank `r` of a seed-shuffled pool is drawn
/// with weight 1/(r+1).
struct Zipf {
    order: Vec<usize>,
    cumulative: Vec<u64>,
}

impl Zipf {
    fn new(n: usize, rng: &mut StdRng) -> Zipf {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut total = 0u64;
        let cumulative = (0..n)
            .map(|r| {
                total += 1_000_000 / (r as u64 + 1);
                total
            })
            .collect();
        Zipf { order, cumulative }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let x = rng.gen_range(0..*self.cumulative.last().expect("non-empty pool"));
        let r = self.cumulative.partition_point(|&c| c <= x);
        self.order[r]
    }
}

/// Lookup pairs per round of each query script. Exactly one in ten asks
/// about an absent constant: pairs 0, 11, 22, 33 and 44, one per template.
pub const LOOKUP_PAIRS: usize = 50;
const ABSENT_EVERY: usize = 10;
/// Lookup pairs between two scan templates.
const LOOKUPS_PER_SCAN: usize = 5;

fn absent_pair(k: usize) -> bool {
    k % ABSENT_EVERY == (k / ABSENT_EVERY) % ABSENT_EVERY
}

/// The query round of connection `conn`: `LOOKUP_PAIRS` lookup pairs with
/// one scan template after every `LOOKUPS_PER_SCAN` of them, each
/// (template, constant) pair asked under every strategy in turn.
pub fn query_round(w: &Workload, conn: usize) -> Vec<QueryOp> {
    let cfg = &w.lubm;
    let mut rng = StdRng::seed_from_u64(
        cfg.seed
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(conn as u64 + 1),
    );
    let (nu, nd) = (cfg.universities, cfg.departments);
    let courses = Zipf::new(nu * nd * cfg.courses_per_department, &mut rng);
    let profs = Zipf::new(nu * nd * cfg.faculty_per_department, &mut rng);
    let depts = Zipf::new(nu * nd, &mut rng);
    let univs = Zipf::new(nu, &mut rng);
    let split = |k: usize, per: usize| (k / (nd * per), (k / per) % nd, k % per);
    let mut ops = Vec::new();
    let push = |tpl: Tpl, constant: Constant, ops: &mut Vec<QueryOp>| {
        let sparql = tpl.sparql(&constant.iri());
        for &strategy in &w.strategies {
            ops.push(QueryOp {
                tpl,
                constant: constant.clone(),
                strategy,
                sparql: sparql.clone(),
            });
        }
    };
    let mut scans = SCANS.iter().cycle();
    for k in 0..LOOKUP_PAIRS {
        let tpl = LOOKUPS[k % LOOKUPS.len()];
        let constant = if absent_pair(k) {
            // A small fixed pool per template, so the dictionary growth
            // that parsing them causes is bounded.
            let n = rng.gen_range(0..4usize);
            Constant::Absent(match tpl {
                Tpl::Q1 => format!("u0/d0/course-absent{n}"),
                Tpl::Q4 | Tpl::Q5 => format!("u0/dept-absent{n}"),
                _ => format!("u0/d0/prof-absent{n}"),
            })
        } else {
            match tpl {
                Tpl::Q1 => {
                    let (u, d, c) = split(courses.draw(&mut rng), cfg.courses_per_department);
                    Constant::Course { u, d, c }
                }
                Tpl::Q3 | Tpl::Q7 => {
                    let (u, d, i) = split(profs.draw(&mut rng), cfg.faculty_per_department);
                    Constant::Prof { u, d, i }
                }
                _ => {
                    let k = depts.draw(&mut rng);
                    Constant::Dept {
                        u: k / nd,
                        d: k % nd,
                    }
                }
            }
        };
        push(tpl, constant, &mut ops);
        if k % LOOKUPS_PER_SCAN == LOOKUPS_PER_SCAN - 1 {
            let tpl = *scans.next().expect("cycle never ends");
            let constant = if tpl == Tpl::Q8 {
                Constant::Univ {
                    u: univs.draw(&mut rng),
                }
            } else {
                Constant::None
            };
            push(tpl, constant, &mut ops);
        }
    }
    ops
}

/// An entity an update script inserts and later deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// Typed undergraduate, member of a department, taking one course.
    Undergrad {
        u: usize,
        d: usize,
        k: usize,
        course: usize,
    },
    /// Typed graduate with a degree, member of a department, one course.
    Grad {
        u: usize,
        d: usize,
        k: usize,
        course: usize,
        from: usize,
    },
    /// An untyped publication by one author.
    Paper {
        u: usize,
        d: usize,
        k: usize,
        author: usize,
    },
    /// An untyped publication by two authors.
    Paper2 {
        u: usize,
        d: usize,
        k: usize,
        author: usize,
        co: usize,
    },
}

impl Entity {
    pub fn triples(&self) -> Vec<[String; 3]> {
        let t = |s: &str, p: &str, o: &str| [s.to_owned(), p.to_owned(), o.to_owned()];
        let ty = format!("<{RDF_TYPE}>");
        match *self {
            Entity::Undergrad { u, d, k, course } => {
                let s = data(&format!("u{u}/d{d}/bench-student{k}"));
                vec![
                    t(&s, &ty, &ub("UndergraduateStudent")),
                    t(&s, &ub("memberOf"), &data(&format!("u{u}/d{d}"))),
                    t(
                        &s,
                        &ub("takesCourse"),
                        &data(&format!("u{u}/d{d}/course{course}")),
                    ),
                ]
            }
            Entity::Grad {
                u,
                d,
                k,
                course,
                from,
            } => {
                let s = data(&format!("u{u}/d{d}/bench-grad{k}"));
                vec![
                    t(&s, &ty, &ub("GraduateStudent")),
                    t(&s, &ub("memberOf"), &data(&format!("u{u}/d{d}"))),
                    t(
                        &s,
                        &ub("undergraduateDegreeFrom"),
                        &data(&format!("u{from}")),
                    ),
                    t(
                        &s,
                        &ub("takesCourse"),
                        &data(&format!("u{u}/d{d}/course{course}")),
                    ),
                ]
            }
            Entity::Paper { u, d, k, author } => {
                let s = data(&format!("u{u}/d{d}/bench-pub{k}"));
                vec![t(
                    &s,
                    &ub("publicationAuthor"),
                    &data(&format!("u{u}/d{d}/prof{author}")),
                )]
            }
            Entity::Paper2 {
                u,
                d,
                k,
                author,
                co,
            } => {
                let s = data(&format!("u{u}/d{d}/bench-pub{k}"));
                vec![
                    t(
                        &s,
                        &ub("publicationAuthor"),
                        &data(&format!("u{u}/d{d}/prof{author}")),
                    ),
                    t(
                        &s,
                        &ub("publicationAuthor"),
                        &data(&format!("u{u}/d{d}/prof{co}")),
                    ),
                ]
            }
        }
    }

    fn student_in(&self) -> Option<(usize, usize)> {
        match *self {
            Entity::Undergrad { u, d, .. } | Entity::Grad { u, d, .. } => Some((u, d)),
            _ => None,
        }
    }
}

/// The one schema triple update rounds insert and delete: every teacher
/// becomes a professor, which re-types the lecturers.
pub fn schema_triple() -> [String; 3] {
    [ub("teacherOf"), format!("<{RDFS_DOMAIN}>"), ub("Professor")]
}

/// One update script of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    InstanceInsert(Entity),
    InstanceDelete(Entity),
    SchemaInsert,
    SchemaDelete,
}

impl UpdateKind {
    pub fn name(self) -> &'static str {
        match self {
            UpdateKind::InstanceInsert(_) => "instance_insert",
            UpdateKind::InstanceDelete(_) => "instance_delete",
            UpdateKind::SchemaInsert => "schema_insert",
            UpdateKind::SchemaDelete => "schema_delete",
        }
    }

    /// The `POST /update` body.
    pub fn body(self) -> String {
        let (verb, triples) = match self {
            UpdateKind::InstanceInsert(e) => ("insert", e.triples()),
            UpdateKind::InstanceDelete(e) => ("delete", e.triples()),
            UpdateKind::SchemaInsert => ("insert", vec![schema_triple()]),
            UpdateKind::SchemaDelete => ("delete", vec![schema_triple()]),
        };
        triples
            .iter()
            .map(|[s, p, o]| format!("{verb} {s} {p} {o} .\n"))
            .collect()
    }
}

/// Instance entities per update round; each is inserted and, two scripts
/// later, deleted.
pub const ROUND_ENTITIES: usize = 8;

/// The writer's round: `ROUND_ENTITIES` inserts, each deleted two inserts
/// later, with the schema triple inserted after the fourth insert and
/// deleted after the seventh. The round nets to no change.
pub fn update_round(w: &Workload) -> Vec<UpdateKind> {
    let cfg = &w.lubm;
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x85EB_CA6B).wrapping_add(7));
    let mut pick = |n: usize| rng.gen_range(0..n);
    let entities: Vec<Entity> = (0..ROUND_ENTITIES)
        .map(|k| {
            let (u, d) = (pick(cfg.universities), pick(cfg.departments));
            match k % 4 {
                0 => Entity::Undergrad {
                    u,
                    d,
                    k,
                    course: pick(cfg.courses_per_department),
                },
                1 => Entity::Paper {
                    u,
                    d,
                    k,
                    author: pick(cfg.faculty_per_department),
                },
                2 => Entity::Grad {
                    u,
                    d,
                    k,
                    course: pick(cfg.courses_per_department),
                    from: pick(cfg.universities),
                },
                _ => {
                    let author = pick(cfg.faculty_per_department);
                    let co = (author + 1 + pick(cfg.faculty_per_department - 1))
                        % cfg.faculty_per_department;
                    Entity::Paper2 {
                        u,
                        d,
                        k,
                        author,
                        co,
                    }
                }
            }
        })
        .collect();
    let mut ops = Vec::new();
    for (k, &e) in entities.iter().enumerate() {
        ops.push(UpdateKind::InstanceInsert(e));
        if k >= 2 {
            ops.push(UpdateKind::InstanceDelete(entities[k - 2]));
        }
        if k == 3 {
            ops.push(UpdateKind::SchemaInsert);
        }
        if k == 6 {
            ops.push(UpdateKind::SchemaDelete);
        }
    }
    for &e in &entities[ROUND_ENTITIES - 2..] {
        ops.push(UpdateKind::InstanceDelete(e));
    }
    ops
}

/// The store state the update ledger tracks: which round entities are
/// present and whether the schema triple is.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    present: Vec<Entity>,
    schema: bool,
}

impl Ledger {
    pub fn is_empty(&self) -> bool {
        self.present.is_empty() && !self.schema
    }

    pub fn apply(&mut self, op: UpdateKind) {
        match op {
            UpdateKind::InstanceInsert(e) => self.present.push(e),
            UpdateKind::InstanceDelete(e) => self.present.retain(|x| *x != e),
            UpdateKind::SchemaInsert => self.schema = true,
            UpdateKind::SchemaDelete => self.schema = false,
        }
    }

    fn students(&self, keep: impl Fn(&Entity) -> bool) -> usize {
        self.present
            .iter()
            .filter(|e| e.student_in().is_some() && keep(e))
            .count()
    }

    /// The closed-form answer count of `tpl` on `constant` in this state,
    /// for the templates whose count the generator's configuration fixes.
    /// Absent constants have none.
    pub fn expected(&self, cfg: &LubmConfig, tpl: Tpl, constant: &Constant) -> Option<usize> {
        if matches!(constant, Constant::Absent(_)) {
            return Some(0);
        }
        let (nu, nd, s, f) = (
            cfg.universities,
            cfg.departments,
            cfg.students_per_department,
            cfg.faculty_per_department,
        );
        let per_dept_students = s + s / 4;
        // Faculty rank cycles full/associate/assistant/lecturer.
        let professors = (0..f).filter(|i| i % 4 != 3).count();
        Some(match (tpl, constant) {
            (Tpl::Q2, _) => nu * nd * (per_dept_students + f) + self.students(|_| true),
            (Tpl::Q6, _) => nu * nd * per_dept_students + self.students(|_| true),
            (Tpl::Q10, _) => {
                nu * nd * (s / 4) + self.students(|e| matches!(e, Entity::Grad { .. }))
            }
            (Tpl::Q8, Constant::Univ { u }) => {
                nd * per_dept_students + self.students(|e| e.student_in().map(|x| x.0) == Some(*u))
            }
            (Tpl::Q5, Constant::Dept { u, d }) => {
                per_dept_students + f + self.students(|e| e.student_in() == Some((*u, *d)))
            }
            (Tpl::Q4, Constant::Dept { .. }) => {
                if self.schema {
                    f
                } else {
                    professors
                }
            }
            _ => return None,
        })
    }
}

/// The three views the update workloads register.
pub fn views() -> Vec<(&'static str, String)> {
    vec![
        ("students", Tpl::Q6.sparql("")),
        (
            "q7-join",
            Tpl::Q7.sparql(&Constant::Prof { u: 0, d: 0, i: 0 }.iri()),
        ),
        (
            "q5-subproperty",
            Tpl::Q5.sparql(&Constant::Dept { u: 0, d: 0 }.iri()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_seeded_and_shaped_alike() {
        let a = Workload::by_name("lubm4-query", 1, true).unwrap();
        let b = Workload::by_name("lubm4-query", 2, true).unwrap();
        let (ra, rb) = (query_round(&a, 0), query_round(&b, 0));
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!((x.tpl, x.strategy), (y.tpl, y.strategy));
        }
        let absent = ra
            .iter()
            .filter(|o| matches!(o.constant, Constant::Absent(_)))
            .count();
        let lookups = ra.iter().filter(|o| o.tpl.class() == Class::Lookup).count();
        assert_eq!(absent * ABSENT_EVERY, lookups);
        let absent_tpls: std::collections::BTreeSet<Tpl> = ra
            .iter()
            .filter(|o| matches!(o.constant, Constant::Absent(_)))
            .map(|o| o.tpl)
            .collect();
        assert_eq!(absent_tpls.len(), LOOKUPS.len());
    }

    #[test]
    fn an_update_round_nets_to_nothing() {
        let w = Workload::by_name("lubm4-update", 3, true).unwrap();
        let mut l = Ledger::default();
        for op in update_round(&w) {
            l.apply(op);
        }
        assert!(l.present.is_empty() && !l.schema);
    }
}
