//! Abstract syntax for queries and TASK definitions.

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<JoinClause>,
    /// WHERE clause in disjunctive normal form: the outer Vec is a
    /// disjunction (OR groups run in parallel per §2.5), each inner Vec
    /// a conjunction (ANDs run serially). Empty = no WHERE clause.
    pub where_groups: Vec<Vec<Predicate>>,
    pub order_by: Vec<OrderExpr>,
    pub limit: Option<usize>,
}

/// One SELECT list entry.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `c.name` or `name`
    Column(String),
    /// `animalInfo(img).common` — generative UDF field access, or a
    /// bare UDF call (single-field generative).
    Udf {
        call: UdfCall,
        field: Option<String>,
    },
}

/// `table [AS alias]`
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// Alias if present, else the table name.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// `JOIN t ON samePerson(a.img, b.img) AND POSSIBLY f(x) = f(y) ...`
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub right: TableRef,
    pub on: UdfCall,
    /// POSSIBLY feature-filter clauses: pairs of UDF calls that must
    /// agree (§2.4). Also admits `POSSIBLY f(x) > n` forms which the
    /// planner treats as feature predicates.
    pub possibly: Vec<PossiblyClause>,
}

/// One POSSIBLY clause.
#[derive(Debug, Clone, PartialEq)]
pub enum PossiblyClause {
    /// `POSSIBLY gender(a.img) = gender(b.img)`
    FeatureEq { left: UdfCall, right: UdfCall },
    /// `POSSIBLY numInScene(s.img) = "1"` — feature compared to a
    /// constant (the paper's end-to-end query prefilter).
    FeatureLit {
        call: UdfCall,
        op: CmpOp,
        value: Literal,
    },
}

/// WHERE predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Crowd UDF filter: `isFemale(c.img)`.
    Udf(UdfCall),
    /// Machine-evaluable comparison: `id < 100`.
    Compare { left: Expr, op: CmpOp, right: Expr },
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// Expressions usable in predicates and UDF arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(String),
    Literal(Literal),
    Udf(UdfCall),
}

/// Literal values in query text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Number(f64),
    Str(String),
}

/// A UDF invocation `name(arg, ...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfCall {
    pub name: String,
    pub args: Vec<Expr>,
}

/// ORDER BY entry.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderExpr {
    pub expr: Expr,
    pub desc: bool,
}

// ---------------- TASK DSL ----------------

/// Which tuple variable a template substitution refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TupleVar {
    /// `tuple[field]` (filters, generative, rank)
    Tuple,
    /// `tuple1[field]` (left side of a join)
    Tuple1,
    /// `tuple2[field]` (right side of a join)
    Tuple2,
}

/// An HTML template with `%s` substitutions: the paper's
/// `"...%s...", tuple[field]` prompt syntax.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    pub format: String,
    pub substitutions: Vec<(TupleVar, String)>,
}

/// Options in a constrained `Radio(...)` response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseOption {
    Value(String),
    /// The special UNKNOWN option (§2.4).
    Unknown,
}

/// A `Response:` specification.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseSpec {
    /// `Text("label")` — free text.
    Text { label: String },
    /// `Radio("label", ["a", "b", UNKNOWN])` — constrained.
    Radio {
        label: String,
        options: Vec<ResponseOption>,
    },
}

/// Property values in TASK blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// String template, possibly with substitutions.
    Template(Template),
    /// Bare identifier (e.g. `MajorityVote`).
    Ident(String),
    Number(f64),
    Response(ResponseSpec),
    /// `Fields: { name: { ... }, ... }`
    Fields(Vec<(String, Vec<(String, PropValue)>)>),
}

/// A parsed TASK definition (untyped; `task::TaskDef` validates).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDefAst {
    pub name: String,
    pub params: Vec<String>,
    pub task_type: String,
    pub props: Vec<(String, PropValue)>,
}

impl TaskDefAst {
    pub fn prop(&self, name: &str) -> Option<&PropValue> {
        self.props
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Ne.eval(Greater));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Gt.eval(Greater));
        assert!(!CmpOp::Ge.eval(Less));
    }

    #[test]
    fn table_ref_binding() {
        let t = TableRef {
            table: "celeb".into(),
            alias: Some("c".into()),
        };
        assert_eq!(t.binding(), "c");
        let t = TableRef {
            table: "celeb".into(),
            alias: None,
        };
        assert_eq!(t.binding(), "celeb");
    }

    #[test]
    fn task_prop_lookup_is_case_insensitive() {
        let ast = TaskDefAst {
            name: "t".into(),
            params: vec![],
            task_type: "Filter".into(),
            props: vec![("YesText".into(), PropValue::Ident("Yes".into()))],
        };
        assert!(ast.prop("yestext").is_some());
        assert!(ast.prop("nope").is_none());
    }
}
