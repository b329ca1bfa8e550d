//! The one binary codec behind every wire message and store record.
//!
//! Everything REVELIO produces leaves the process in two places: the
//! network frames of `revelio-server` and the log records of
//! `revelio-store`. Both speak the same little-endian encoding, and every
//! type that crosses either boundary states its byte layout exactly once,
//! as one [`Codec`] impl: a struct lists its fields in wire order through
//! [`wire_struct!`](crate::wire_struct), a fieldless enum lists its tag
//! bytes through [`wire_enum!`](crate::wire_enum), and the few types with
//! data-carrying variants or validation (a [`Target`], a [`GnnConfig`], a
//! [`Degradation`]) write the impl by hand. There is no reflection and no serde; the encoding is
//! fixed by the field lists, so a layout change is a visible edit to one
//! list.
//!
//! Generic impls cover the building blocks: the integer, `f32` and `bool`
//! primitives, `String` (`u16` byte-length prefix), `[u64; N]` (no
//! prefix), `Vec<T>` (`u32` count) and `Option<T>` (`0`/`1` tag byte, any
//! other byte is [`WireDecodeError::Invalid`]).
//!
//! Decoding never trusts a length before checking it against the bytes
//! that are actually present: a `Vec<T>` rejects a count whose cheapest
//! encoding ([`Codec::MIN_LEN`] per element) exceeds the remaining buffer
//! *before* allocating, so a truncated or hostile buffer costs at most the
//! bytes received.

use std::fmt;

use revelio_gnn::{GnnConfig, GnnKind, Task};
use revelio_graph::Target;
use revelio_trace::{AssembledEvent, AssembledSpan, AssembledTrace, PointKind, TraceContext};

use crate::control::{ConvergedMask, Degradation};
use crate::explanation::Objective;

/// Error raised by [`WireReader`] when a buffer does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireDecodeError {
    /// The buffer ended before the announced content did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A field held a value its type forbids (bad enum tag, non-UTF-8
    /// string, inconsistent lengths, …).
    Invalid(&'static str),
    /// Decoding finished with unread bytes left over — the sender and
    /// receiver disagree about the message layout.
    TrailingBytes(usize),
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireDecodeError::Truncated { needed, remaining } => write!(
                f,
                "truncated message: needed {needed} more bytes, {remaining} remaining"
            ),
            WireDecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireDecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after a complete message")
            }
        }
    }
}

impl std::error::Error for WireDecodeError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), shared by the frame header and the store log.
// ---------------------------------------------------------------------------

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table of the reflected IEEE polynomial, and `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// advance the register by eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut t = 1;
        while t < 8 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            t += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`: the checksum of every network frame payload
/// and every store log record.
///
/// Slicing-by-8: each 8-byte block is folded into the register with eight
/// independent table lookups instead of eight dependent ones, then the
/// tail runs bytewise. The values are those of the bytewise loop.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |v: u32, shift: u32| ((v >> shift) & 0xFF) as usize;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][byte(lo, 0)]
            ^ t[6][byte(lo, 8)]
            ^ t[5][byte(lo, 16)]
            ^ t[4][byte(lo, 24)]
            ^ t[3][byte(hi, 0)]
            ^ t[2][byte(hi, 8)]
            ^ t[1][byte(hi, 16)]
            ^ t[0][byte(hi, 24)];
    }
    for &b in blocks.remainder() {
        c = t[0][byte(c ^ u32::from(b), 0)] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// FNV-1a 64, shared by the model fingerprint, the gateway's routing hash
// and the evaluation harness's graph ids.
// ---------------------------------------------------------------------------

/// Streaming FNV-1a 64: feed bytes with [`Fnv1a::write`] in any number of
/// pieces, then read the hash with [`Fnv1a::finish`]. The result depends
/// only on the concatenated bytes, never on how they were split.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a 64 offset basis.
    pub const fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// FNV-1a 64 of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Writer primitives: plain functions appending to a Vec<u8>.
// ---------------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as its little-endian IEEE-754 bits (bit-exact: `NaN`
/// payloads and signed zeros survive the round trip).
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a `bool` as one byte (`0` / `1`).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a `u16` length prefix followed by the UTF-8 bytes.
///
/// # Panics
///
/// Panics if `s` is longer than `u16::MAX` bytes; wire strings are short
/// identifiers (method names, error messages are truncated by callers).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= u16::MAX as usize, "wire string too long");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a `u32` count followed by each item: the `Vec<T>` layout,
/// for callers holding a slice.
pub fn put_slice<T: Codec>(out: &mut Vec<u8>, items: &[T]) {
    put_u32(out, items.len() as u32);
    for item in items {
        item.encode(out);
    }
}

// ---------------------------------------------------------------------------
// Reader: bounds-checked cursor over a received buffer.
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian cursor over a received byte buffer.
///
/// Every getter checks the remaining length first and returns
/// [`WireDecodeError::Truncated`] instead of panicking.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`WireDecodeError::Truncated`] unless `needed` bytes
    /// remain; the guard every length-prefixed decoder runs before it
    /// allocates.
    pub fn require(&self, needed: usize) -> Result<(), WireDecodeError> {
        if self.remaining() < needed {
            return Err(WireDecodeError::Truncated {
                needed,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireDecodeError> {
        self.require(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireDecodeError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireDecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireDecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireDecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireDecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f32` from its IEEE bits.
    pub fn f32(&mut self) -> Result<f32, WireDecodeError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `bool`; any byte other than `0`/`1` is invalid.
    pub fn bool(&mut self) -> Result<bool, WireDecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireDecodeError::Invalid("bool byte")),
        }
    }

    /// Reads a `u16`-prefixed UTF-8 string written by [`put_str`].
    pub fn str(&mut self) -> Result<String, WireDecodeError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireDecodeError::Invalid("string is not UTF-8"))
    }

    /// Asserts the buffer is fully consumed (a layout-drift tripwire).
    pub fn expect_end(&self) -> Result<(), WireDecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireDecodeError::TrailingBytes(self.remaining()))
        }
    }
}

// ---------------------------------------------------------------------------
// The codec trait and its generic impls.
// ---------------------------------------------------------------------------

/// A type with one fixed byte layout, shared by the network and the store.
pub trait Codec: Sized {
    /// Bytes of the cheapest possible encoding. A `Vec<Self>` checks its
    /// count against the remaining bytes at this rate before allocating.
    const MIN_LEN: usize;

    /// Appends the encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value, leaving the reader just past it.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError>;

    /// The encoding as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a buffer that holds exactly one value; leftover bytes are
    /// [`WireDecodeError::TrailingBytes`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireDecodeError> {
        let mut r = WireReader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }
}

macro_rules! primitive_codec {
    ($($ty:ty => $len:expr, $put:ident, $get:ident;)+) => {$(
        impl Codec for $ty {
            const MIN_LEN: usize = $len;
            fn encode(&self, out: &mut Vec<u8>) {
                $put(out, *self);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
                r.$get()
            }
        }
    )+};
}

primitive_codec! {
    u8 => 1, put_u8, u8;
    u16 => 2, put_u16, u16;
    u32 => 4, put_u32, u32;
    u64 => 8, put_u64, u64;
    f32 => 4, put_f32, f32;
    bool => 1, put_bool, bool;
}

/// Nothing: zero bytes, for a generic slot left empty.
impl Codec for () {
    const MIN_LEN: usize = 0;
    fn encode(&self, _: &mut Vec<u8>) {}
    fn decode(_: &mut WireReader<'_>) -> Result<(), WireDecodeError> {
        Ok(())
    }
}

impl Codec for String {
    const MIN_LEN: usize = 2;
    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        r.str()
    }
}

impl<const N: usize> Codec for [u64; N] {
    const MIN_LEN: usize = 8 * N;
    fn encode(&self, out: &mut Vec<u8>) {
        for &v in self {
            put_u64(out, v);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        let mut a = [0u64; N];
        for v in &mut a {
            *v = r.u64()?;
        }
        Ok(a)
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_LEN: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        put_slice(out, self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        let n = r.u32()? as usize;
        r.require(n.saturating_mul(T::MIN_LEN))?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_LEN: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                put_u8(out, 1);
                v.encode(out);
            }
            None => put_u8(out, 0),
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(WireDecodeError::Invalid("option tag")),
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    const MIN_LEN: usize = T::MIN_LEN;
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        T::decode(r).map(Box::new)
    }
}

/// Implements [`Codec`] for a struct as its fields, encoded one after the
/// other in the listed order. Every field must be listed with its type
/// (the compiler rejects a missing field or a wrong type), and an optional
/// `check` function vets the decoded value.
///
/// ```
/// use revelio_core::wire::{Codec, WireDecodeError};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     start: u64,
///     name: String,
/// }
/// revelio_core::wire_struct!(Span { start: u64, name: String } check non_empty);
///
/// fn non_empty(s: &Span) -> Result<(), WireDecodeError> {
///     if s.name.is_empty() {
///         return Err(WireDecodeError::Invalid("empty span name"));
///     }
///     Ok(())
/// }
///
/// let s = Span { start: 7, name: "route".to_owned() };
/// assert_eq!(Span::from_bytes(&s.to_bytes()), Ok(s));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident: $fty:ty),+ $(,)? } $(check $check:path)?) => {
        impl $crate::wire::Codec for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as $crate::wire::Codec>::MIN_LEN)+;
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::wire::Codec::encode(&self.$field, out);)+
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireDecodeError> {
                let value = $ty {
                    $($field: <$fty as $crate::wire::Codec>::decode(r)?,)+
                };
                $($check(&value)?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`Codec`] for a fieldless enum as one tag byte per variant;
/// an unlisted byte decodes to [`WireDecodeError::Invalid`] naming `what`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ty, $what:literal { $($variant:path = $tag:literal),+ $(,)? }) => {
        impl $crate::wire::Codec for $ty {
            const MIN_LEN: usize = 1;
            fn encode(&self, out: &mut Vec<u8>) {
                $crate::wire::put_u8(out, match self { $($variant => $tag,)+ });
            }
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> Result<Self, $crate::wire::WireDecodeError> {
                match r.u8()? {
                    $($tag => Ok($variant),)+
                    _ => Err($crate::wire::WireDecodeError::Invalid($what)),
                }
            }
        }
    };
}

/// The property every [`Codec`] holds for `value`: it round-trips through
/// [`Codec::to_bytes`] / [`Codec::from_bytes`], every strict prefix of its
/// encoding fails to decode, and one trailing byte is rejected as
/// [`WireDecodeError::TrailingBytes`]. Returns the first violation.
pub fn check_codec<T: Codec + PartialEq + fmt::Debug>(value: &T) -> Result<(), String> {
    let bytes = value.to_bytes();
    match T::from_bytes(&bytes) {
        Ok(back) if back == *value => {}
        other => return Err(format!("{value:?} decoded back as {other:?}")),
    }
    for cut in 0..bytes.len() {
        if let Ok(v) = T::decode(&mut WireReader::new(&bytes[..cut])) {
            return Err(format!("{cut}-byte prefix of {value:?} decoded as {v:?}"));
        }
    }
    let mut longer = bytes;
    longer.push(0);
    match T::from_bytes(&longer) {
        Err(WireDecodeError::TrailingBytes(1)) => Ok(()),
        other => Err(format!("{value:?} plus one byte decoded as {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Layouts of the shared vocabulary.
// ---------------------------------------------------------------------------

/// The serialisable subset of [`ExplainControl`]: what a *remote* caller can
/// ask for. The process-local parts (the cancel flag, the cached flow
/// index) are attached server-side; the deadline crosses the wire as a
/// relative budget because `Instant`s are meaningless across machines.
///
/// [`ExplainControl`]: crate::ExplainControl
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlSpec {
    /// Per-request latency budget in milliseconds (`None` = the server's
    /// default deadline).
    pub deadline_ms: Option<u64>,
    /// Flow-enumeration cap; oversized instances are shrunk (and the drop
    /// reported via [`Degradation::flows_dropped`]) when
    /// `shrink_on_overflow` is set.
    pub max_flows: u64,
    /// Degrade oversized instances instead of failing them.
    pub shrink_on_overflow: bool,
    /// Capture a structured execution trace for this request. The server
    /// attaches a ring-buffer collector to the job and stores the finished
    /// trace for later retrieval by trace ID; untraced requests pay only the
    /// runtime's always-on phase metrics.
    pub trace: bool,
    /// Ask the server to seed the mask optimisation from its persistent
    /// store (the newest converged mask for the same model/graph/target/L
    /// key, guarded by a model fingerprint). Off by default: a cold run is
    /// bit-identical to one against a server without a store.
    pub warm_start: bool,
}

impl Default for ControlSpec {
    fn default() -> Self {
        ControlSpec {
            deadline_ms: None,
            max_flows: 100_000,
            shrink_on_overflow: true,
            trace: false,
            warm_start: false,
        }
    }
}

wire_struct!(ControlSpec {
    deadline_ms: Option<u64>,
    max_flows: u64,
    shrink_on_overflow: bool,
    trace: bool,
    warm_start: bool,
});

impl Codec for Degradation {
    const MIN_LEN: usize = 1 + 3 * 8;
    fn encode(&self, out: &mut Vec<u8>) {
        put_bool(out, self.deadline_hit);
        put_u64(out, self.epochs_run as u64);
        put_u64(out, self.epochs_planned as u64);
        put_u64(out, self.flows_dropped);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        Ok(Degradation {
            deadline_hit: r.bool()?,
            epochs_run: r.u64()? as usize,
            epochs_planned: r.u64()? as usize,
            flows_dropped: r.u64()?,
        })
    }
}

wire_struct!(ConvergedMask {
    mask_params: Vec<f32>,
    layer_weights: Vec<Vec<f32>>,
    selected: Vec<u32>,
} check mask_aligned);

/// A converged mask holds one parameter per selected flow.
fn mask_aligned(m: &ConvergedMask) -> Result<(), WireDecodeError> {
    if m.mask_params.len() != m.selected.len() {
        return Err(WireDecodeError::Invalid(
            "mask parameters misaligned with selection",
        ));
    }
    Ok(())
}

wire_enum!(Objective, "objective tag" {
    Objective::Factual = 0,
    Objective::Counterfactual = 1,
});

impl Codec for Target {
    const MIN_LEN: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Target::Graph => put_u8(out, 0),
            Target::Node(n) => {
                put_u8(out, 1);
                put_u64(out, n as u64);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        match r.u8()? {
            0 => Ok(Target::Graph),
            1 => Ok(Target::Node(r.u64()? as usize)),
            _ => Err(WireDecodeError::Invalid("target tag")),
        }
    }
}

wire_enum!(GnnKind, "gnn kind tag" {
    GnnKind::Gcn = 0,
    GnnKind::Gin = 1,
    GnnKind::Gat = 2,
});

wire_enum!(Task, "task tag" {
    Task::NodeClassification = 0,
    Task::GraphClassification = 1,
});

impl Codec for GnnConfig {
    const MIN_LEN: usize = 1 + 1 + 5 * 4 + 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.task.encode(out);
        for dim in [
            self.in_dim,
            self.hidden_dim,
            self.num_classes,
            self.num_layers,
            self.heads,
        ] {
            put_u32(out, dim as u32);
        }
        put_u64(out, self.seed);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        Ok(GnnConfig {
            kind: GnnKind::decode(r)?,
            task: Task::decode(r)?,
            in_dim: r.u32()? as usize,
            hidden_dim: r.u32()? as usize,
            num_classes: r.u32()? as usize,
            num_layers: r.u32()? as usize,
            heads: r.u32()? as usize,
            seed: r.u64()?,
        })
    }
}

wire_struct!(TraceContext {
    trace_hi: u64,
    trace_lo: u64,
    parent_span: u64,
    sampled: bool,
});

wire_struct!(AssembledSpan {
    lane: u32,
    name: String,
    start_us: u64,
    dur_us: u64,
});

impl Codec for PointKind {
    const MIN_LEN: usize = 2;
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PointKind::Epoch {
                index,
                loss,
                grad_norm,
            } => {
                put_u8(out, 0);
                put_u32(out, *index);
                put_f32(out, *loss);
                put_f32(out, *grad_norm);
            }
            PointKind::CacheProbe { hit } => {
                put_u8(out, 1);
                put_bool(out, *hit);
            }
            PointKind::DeadlineHit { epoch } => {
                put_u8(out, 2);
                put_u32(out, *epoch);
            }
            PointKind::Note(s) => {
                put_u8(out, 3);
                put_str(out, s);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        Ok(match r.u8()? {
            0 => PointKind::Epoch {
                index: r.u32()?,
                loss: r.f32()?,
                grad_norm: r.f32()?,
            },
            1 => PointKind::CacheProbe { hit: r.bool()? },
            2 => PointKind::DeadlineHit { epoch: r.u32()? },
            3 => PointKind::Note(r.str()?),
            _ => return Err(WireDecodeError::Invalid("point event tag")),
        })
    }
}

wire_struct!(AssembledEvent {
    lane: u32,
    at_us: u64,
    kind: PointKind,
});

wire_struct!(AssembledTrace {
    trace_hi: u64,
    trace_lo: u64,
    dropped: u64,
    lanes: Vec<String>,
    spans: Vec<AssembledSpan>,
    events: Vec<AssembledEvent>,
} check on_lanes);

/// Every span and point event of an assembled trace sits on one of its
/// lanes.
fn on_lanes(t: &AssembledTrace) -> Result<(), WireDecodeError> {
    let mut lanes = (t.spans.iter().map(|s| s.lane)).chain(t.events.iter().map(|e| e.lane));
    if lanes.any(|lane| lane as usize >= t.lanes.len()) {
        return Err(WireDecodeError::Invalid("lane index out of range"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise CRC-32 loop: the reference the slicing-by-8 [`crc32`]
    /// must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        for f in [crc32, crc32_bytewise] {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
        }
        // A large buffer runs many blocks plus a tail.
        let big: Vec<u8> = (0..100_003u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // Streaming in pieces hashes the concatenation.
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_crc32_equals_the_bytewise_loop(
            bytes in prop::collection::vec(0u8..=255, 0..72),
            start in 0usize..8,
        ) {
            // Lengths 0..64 from every start offset: every tail length,
            // and blocks that begin unaligned in the buffer.
            let data = &bytes[start.min(bytes.len())..];
            let data = &data[..data.len().min(64)];
            prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn primitive_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 513);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -0.0);
        put_bool(&mut buf, true);
        None::<u64>.encode(&mut buf);
        Some(42u64).encode(&mut buf);
        put_str(&mut buf, "REVELIO");
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(513));
        assert_eq!(r.u32(), Ok(70_000));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32().map(f32::to_bits), Ok((-0.0f32).to_bits()));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(Option::<u64>::decode(&mut r), Ok(None));
        assert_eq!(Option::<u64>::decode(&mut r), Ok(Some(42)));
        assert_eq!(r.str().as_deref(), Ok("REVELIO"));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 99);
        let mut r = WireReader::new(&buf[..5]);
        assert!(matches!(
            r.u64(),
            Err(WireDecodeError::Truncated {
                needed: 8,
                remaining: 5
            })
        ));
    }

    #[test]
    fn length_prefix_is_validated_before_allocation() {
        // Claims 2^31 floats but carries none: must fail fast.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX / 2);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            Vec::<f32>::decode(&mut r),
            Err(WireDecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn nan_scores_survive_bit_exact() {
        let weird = f32::from_bits(0x7FC0_0001); // NaN with a payload
        let mut buf = Vec::new();
        put_slice(&mut buf, &[1.5, weird, f32::NEG_INFINITY]);
        let mut r = WireReader::new(&buf);
        let back = Vec::<f32>::decode(&mut r).expect("decodes");
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].to_bits(), 1.5f32.to_bits());
        assert_eq!(back[1].to_bits(), weird.to_bits());
        assert_eq!(back[2].to_bits(), f32::NEG_INFINITY.to_bits());
    }

    #[test]
    fn control_spec_and_degradation_round_trip() {
        let spec = ControlSpec {
            deadline_ms: Some(250),
            max_flows: 60_000,
            shrink_on_overflow: false,
            trace: true,
            warm_start: true,
        };
        let mut buf = Vec::new();
        spec.encode(&mut buf);
        let deg = Degradation {
            deadline_hit: true,
            epochs_run: 17,
            epochs_planned: 500,
            flows_dropped: 1234,
        };
        deg.encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(ControlSpec::decode(&mut r), Ok(spec));
        assert_eq!(Degradation::decode(&mut r), Ok(deg));
        assert_eq!(r.expect_end(), Ok(()));
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool(), Err(WireDecodeError::Invalid("bool byte")));
        let mut r = WireReader::new(&[9, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(
            Option::<u64>::decode(&mut r),
            Err(WireDecodeError::Invalid("option tag"))
        );
        let mut r = WireReader::new(&[2, 0, 0xFF, 0xFE]);
        assert_eq!(
            r.str(),
            Err(WireDecodeError::Invalid("string is not UTF-8"))
        );
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = [1u8, 2, 3];
        let mut r = WireReader::new(&buf);
        let _ = r.u8();
        assert_eq!(r.expect_end(), Err(WireDecodeError::TrailingBytes(2)));
    }
}
