//! Metric tables: each always-on metric is declared once, as one row.
//!
//! A row names a snapshot field, its type, and how it is exposed: its kind,
//! Prometheus family name, report label and help text. [`metric_table!`]
//! turns the rows into the relaxed-atomic registry, the plain snapshot, the
//! snapshot's [`Codec`] (declaration order is wire order), a saturating
//! `merge`, the Prometheus families and the human report. Adding a metric
//! is one row plus its recording site.
//!
//! [`Codec`]: revelio_core::wire::Codec

use std::fmt::Display;

use revelio_check::sync::atomic::{AtomicU64, Ordering};

#[doc(hidden)]
pub use revelio_core::wire as __wire;

/// How a row is recorded and exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone `u64` counter.
    Counter,
    /// A `u64` level that rises and falls.
    Gauge,
    /// A counter kept outside the registry (the artifact cache counts its
    /// own hits and misses); the snapshot's caller fills it in.
    External,
    /// A fixed-bucket histogram.
    Histogram,
    /// A latency histogram of one pipeline stage. It also feeds the shared
    /// quantile gauge family, labelled with the row's report label.
    Stage,
}

impl Kind {
    /// The Prometheus `# TYPE` of the row's family.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter | Kind::External => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram | Kind::Stage => "histogram",
        }
    }
}

/// One row's exposition: kind, Prometheus family, report label, help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub kind: Kind,
    /// The Prometheus family name.
    pub name: &'static str,
    /// The report label: `"group key"` for values (rows sharing a group
    /// share a report line), a single word for histograms.
    pub label: &'static str,
    /// Prometheus `# HELP` text, also the field's documentation.
    pub help: &'static str,
}

impl MetricDef {
    /// What a row that carries a nested table or plain data passes: such
    /// values expose and report themselves, or nothing.
    pub const CARRIED: MetricDef = MetricDef {
        kind: Kind::Counter,
        name: "",
        label: "",
        help: "",
    };
}

/// A snapshot field the table machinery can merge and render.
pub trait Metric {
    /// Folds `other` into `self`; every sum saturates.
    fn merge(&mut self, other: &Self);
    /// Appends this value's Prometheus samples.
    fn expose(&self, def: &MetricDef, out: &mut Sections);
    /// Appends this value to the human report.
    fn render(&self, def: &MetricDef, out: &mut Sections);
}

/// A snapshot value the registry records: its atomic cell and the load.
pub trait Recorded: Sized {
    /// The registry's field type.
    type Cell: Default;
    /// A relaxed point-in-time read of the cell.
    fn load(cell: &Self::Cell) -> Self;
}

/// What a table computes from its rows rather than records: ratios,
/// labelled per-item families, extra report lines.
pub trait Derived {
    /// Appends derived Prometheus families.
    fn derived_families(&self, _out: &mut Sections) {}
    /// Appends derived report values and lines.
    fn derived_report(&self, _out: &mut Sections) {}
}

impl Recorded for u64 {
    type Cell = AtomicU64;
    fn load(cell: &AtomicU64) -> u64 {
        cell.load(Ordering::Relaxed)
    }
}

impl Metric for u64 {
    fn merge(&mut self, other: &u64) {
        *self = self.saturating_add(*other);
    }

    fn expose(&self, def: &MetricDef, out: &mut Sections) {
        let family = out.family(def.name, def.kind.prometheus_type(), def.help);
        let name = def.name;
        if def.kind == Kind::Gauge {
            family.push_str(&format!("\n{name} {}", *self as f64));
        } else {
            family.push_str(&format!("\n{name} {self}"));
        }
    }

    fn render(&self, def: &MetricDef, out: &mut Sections) {
        out.value(def.label, self);
    }
}

/// Plain data a table carries (the gateway's per-backend rows): merging
/// concatenates, and the owning table's [`Derived`] renders it.
impl<T: Clone> Metric for Vec<T> {
    fn merge(&mut self, other: &Self) {
        self.extend_from_slice(other);
    }
    fn expose(&self, _: &MetricDef, _: &mut Sections) {}
    fn render(&self, _: &MetricDef, _: &mut Sections) {}
}

/// Rendered text in keyed sections, kept in first-use order, so that rows
/// sharing a key (a report line, a Prometheus family) stay together
/// wherever they are declared.
#[derive(Debug, Default)]
pub struct Sections(Vec<(String, String)>);

impl Sections {
    /// The section under `key`, opened with `head()` on first use.
    pub fn get(&mut self, key: &str, head: impl FnOnce() -> String) -> &mut String {
        let i = match self.0.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                self.0.push((key.to_owned(), head()));
                self.0.len() - 1
            }
        };
        &mut self.0[i].1
    }

    /// A Prometheus family's section, opened with its `# HELP` and
    /// `# TYPE` lines; each sample is appended as `"\n<sample>"`.
    pub fn family(&mut self, name: &str, ty: &str, help: &str) -> &mut String {
        self.get(name, || format!("# HELP {name} {help}\n# TYPE {name} {ty}"))
    }

    /// Appends ` key=value` to the report line of `label`'s group.
    pub fn value(&mut self, label: &str, value: impl Display) {
        let (group, key) = label.split_once(' ').unwrap_or((label, ""));
        self.line(group).push_str(&format!(" {key}={value}"));
    }

    /// A report line of its own, opened with the aligned `label`.
    pub fn line(&mut self, label: &str) -> &mut String {
        self.get(label, || format!("  {label:<9}"))
    }

    /// Every section, one per line.
    pub fn finish(self) -> String {
        self.0.into_iter().map(|(_, text)| text + "\n").collect()
    }
}

/// Declares a metric table: a registry struct and the snapshot struct it
/// loads into, with one row per snapshot field.
///
/// A row is `field: Type = Kind("prometheus_name", "report label", "help");`
/// with a [`Kind`] variant. `Counter`, `Gauge`, `Histogram` and `Stage` rows
/// are recorded: the registry gets a public field of the type's
/// [`Recorded::Cell`] (an `AtomicU64`, or a [`Histogram`]), and `load()`
/// reads it. `External` rows and rows without a kind (`field: Type;`, a
/// nested table or plain data) are only in the snapshot; `load()` leaves
/// them at their default for the caller to fill in.
///
/// The snapshot implements [`Metric`] and gets `merge`, `prometheus`,
/// `report`, a `METRICS` list of its rows' definitions and a `Codec` over
/// its rows in declaration order. The snapshot must implement [`Derived`].
///
/// [`Histogram`]: crate::Histogram
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$reg_attr:meta])*
        $reg_vis:vis struct $Reg:ident;
        $(#[$snap_attr:meta])*
        $snap_vis:vis struct $Snap:ident($title:literal) { $($rows:tt)* }
    ) => {
        $crate::metric_table!(@snapshot [$(#[$snap_attr])* $snap_vis struct $Snap]
            $($rows)*);
        $crate::metric_table!(@registry
            [self $(#[$reg_attr])* $reg_vis struct $Reg => $Snap] [] []
            $($rows)*);

        impl $crate::Metric for $Snap {
            fn merge(&mut self, other: &Self) {
                $crate::metric_table!(@merge self other $($rows)*);
            }
            fn expose(&self, _: &$crate::MetricDef, out: &mut $crate::Sections) {
                $crate::metric_table!(@expose self out $($rows)*);
                $crate::Derived::derived_families(self, out);
            }
            fn render(&self, _: &$crate::MetricDef, out: &mut $crate::Sections) {
                out.get($title, String::new).push_str(self.report().trim_end());
            }
        }

        impl $Snap {
            /// Every declared row's exposition, in declaration order.
            pub const METRICS: &'static [$crate::MetricDef] =
                $crate::metric_table!(@defs $($rows)*);

            /// Folds `other` into `self`: counters and gauges sum
            /// (saturating), histograms add bucket-wise, nested tables
            /// merge.
            pub fn merge(&mut self, other: &Self) {
                $crate::Metric::merge(self, other);
            }

            /// Renders the table as Prometheus text exposition.
            pub fn prometheus(&self) -> String {
                let mut out = $crate::Sections::default();
                $crate::Metric::expose(self, &$crate::MetricDef::CARRIED, &mut out);
                out.finish()
            }

            /// Renders the table as an aligned human-readable report.
            pub fn report(&self) -> String {
                let mut out = $crate::Sections::default();
                out.get($title, || $title.to_owned());
                $crate::metric_table!(@render self &mut out, $($rows)*);
                $crate::Derived::derived_report(self, &mut out);
                out.finish()
            }
        }

        impl $crate::__wire::Codec for $Snap {
            const MIN_LEN: usize = $crate::metric_table!(@min_len $($rows)*);
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::metric_table!(@encode self out $($rows)*);
            }
            fn decode(
                r: &mut $crate::__wire::WireReader<'_>,
            ) -> Result<Self, $crate::__wire::WireDecodeError> {
                $crate::metric_table!(@decode r $($rows)*);
                Ok($crate::metric_table!(@literal $Snap $($rows)*))
            }
        }
    };

    (@snapshot [$(#[$attr:meta])* $vis:vis struct $Snap:ident]
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident($n:literal, $l:literal, $h:literal))?;)*
    ) => {
        $(#[$attr])*
        $vis struct $Snap {
            $($(#[doc = $h])? $(#[$a])* pub $f: $ty,)*
        }
    };

    // Collects the recorded rows into the registry; the rest load as default.
    (@registry [$s:ident $(#[$attr:meta])* $vis:vis struct $Reg:ident => $Snap:ident]
        [$($fields:tt)*] [$($loads:tt)*]
    ) => {
        $(#[$attr])*
        $vis struct $Reg {
            $($fields)*
        }

        impl $Reg {
            /// Relaxed loads of every recorded row; the table's other rows
            /// are left at their default for the caller to fill in.
            pub fn load(&$s) -> $Snap {
                $Snap { $($loads)* }
            }
        }
    };
    (@registry $head:tt [$($fields:tt)*] [$($loads:tt)*]
        $(#[$a:meta])* $f:ident : $ty:ty $(= External $def:tt)?; $($rest:tt)*
    ) => {
        $crate::metric_table!(@registry $head [$($fields)*]
            [$($loads)* $f: Default::default(),] $($rest)*);
    };
    (@registry [$s:ident $($head:tt)*] [$($fields:tt)*] [$($loads:tt)*]
        $(#[$a:meta])* $f:ident : $ty:ty = $k:ident($n:literal, $l:literal, $h:literal);
        $($rest:tt)*
    ) => {
        $crate::metric_table!(@registry [$s $($head)*]
            [$($fields)* #[doc = $h] $(#[$a])* pub $f: <$ty as $crate::Recorded>::Cell,]
            [$($loads)* $f: $crate::Recorded::load(&$s.$f),] $($rest)*);
    };

    (@merge $s:ident $other:ident
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident($n:literal, $l:literal, $h:literal))?;)*
    ) => {
        $($crate::Metric::merge(&mut $s.$f, &$other.$f);)*
    };
    (@expose $s:ident $out:ident
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident($n:literal, $l:literal, $h:literal))?;)*
    ) => {
        $($crate::Metric::expose(
            &$s.$f, &$crate::metric_table!(@def $($k $n $l $h)?), $out);)*
    };
    (@render $s:ident $out:expr,
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident($n:literal, $l:literal, $h:literal))?;)*
    ) => {
        $($crate::Metric::render(
            &$s.$f, &$crate::metric_table!(@def $($k $n $l $h)?), $out);)*
    };
    (@defs
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident($n:literal, $l:literal, $h:literal))?;)*
    ) => {
        &[$($($crate::metric_table!(@def $k $n $l $h),)?)*]
    };
    (@def $k:ident $n:literal $l:literal $h:literal) => {
        $crate::MetricDef { kind: $crate::Kind::$k, name: $n, label: $l, help: $h }
    };
    (@def) => {
        $crate::MetricDef::CARRIED
    };
    (@encode $s:ident $out:ident
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident $def:tt)?;)*
    ) => {
        $($crate::__wire::Codec::encode(&$s.$f, $out);)*
    };
    (@decode $r:ident
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident $def:tt)?;)*
    ) => {
        $(let $f = <$ty as $crate::__wire::Codec>::decode($r)?;)*
    };
    (@literal $Snap:ident
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident $def:tt)?;)*
    ) => {
        $Snap { $($f,)* }
    };
    (@min_len
        $($(#[$a:meta])* $f:ident : $ty:ty $(= $k:ident $def:tt)?;)*
    ) => {
        0 $(+ <$ty as $crate::__wire::Codec>::MIN_LEN)*
    };
}
