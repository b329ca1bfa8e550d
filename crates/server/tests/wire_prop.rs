//! Property tests for the wire codec: round-trips on arbitrary messages,
//! and rejection (never a panic, never silent corruption) for truncated,
//! corrupted, oversized, and wrong-version frames. Every generated message
//! value also runs through [`check_codec`], the property every `Codec`
//! holds (round trip, every strict prefix rejected, a trailing byte
//! rejected).

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use revelio_core::wire::{check_codec, Codec, ControlSpec, WireDecodeError};
use revelio_core::{Degradation, Objective};
use revelio_eval::Effort;
use revelio_graph::{Graph, Target};
use revelio_runtime::prometheus::parse_exposition;
use revelio_runtime::{HistogramSnapshot, MetricsSnapshot};
use revelio_server::wire::{
    crc32, encode_frame, read_frame, ErrorKind, ExplainRequest, GatewayBackendStats, GatewayStats,
    MaskKey, Request, Response, ServedExplanation, ServerStats, WireError, WireExplanationSummary,
    WireStoredExplanation, WireTiming, HEADER_LEN, MAX_WIRE_FEATURE_ENTRIES, PROTOCOL_VERSION,
};
use revelio_trace::{AssembledEvent, AssembledSpan, AssembledTrace, PointKind, TraceContext};

const METHODS: [&str; 4] = ["REVELIO", "FlowX", "GNNExplainer", "GradCAM"];

/// Fails the case when `value` breaks the shared codec property.
fn holds<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
    if let Err(violation) = check_codec(value) {
        panic!("{violation}");
    }
}

/// A short string over ASCII and multi-byte characters.
fn text(seed: &[u64]) -> String {
    seed.iter()
        .map(|&v| ['a', 'Z', '7', ':', 'é', '✓'][(v % 6) as usize])
        .collect()
}

/// Builds a valid graph from raw generated material, skipping edges that
/// would violate the builder's invariants.
fn graph_from(num_nodes: usize, feat_dim: usize, raw_edges: &[(usize, usize)]) -> Graph {
    let mut b = Graph::builder(num_nodes, feat_dim);
    for &(s, d) in raw_edges {
        let (s, d) = (s % num_nodes, d % num_nodes);
        if s != d && !b.has_edge(s, d) {
            b.edge(s, d);
        }
    }
    let feats: Vec<f32> = (0..num_nodes * feat_dim)
        .map(|i| (i as f32 * 0.37).sin())
        .collect();
    if !feats.is_empty() {
        b.all_features(feats);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn explain_request_round_trips(
        shape in (2usize..9, 1usize..4, 0u64..u64::MAX),
        raw_edges in prop::collection::vec((0usize..9, 0usize..9), 0..14),
        knobs in (0usize..4, 0u64..5_000, 1u64..200_000, 0usize..8),
    ) {
        let (num_nodes, feat_dim, graph_id) = shape;
        let (method_ix, deadline_ms, max_flows, variant) = knobs;
        let graph = graph_from(num_nodes, feat_dim, &raw_edges);
        let req = ExplainRequest {
            model: (graph_id % u32::MAX as u64) as u32,
            graph_id,
            method: METHODS[method_ix].to_owned(),
            objective: if variant & 1 == 0 { Objective::Factual } else { Objective::Counterfactual },
            effort: if variant & 2 == 0 { Effort::Quick } else { Effort::Paper },
            target: if variant & 4 == 0 {
                Target::Graph
            } else {
                Target::Node(graph_id as usize % num_nodes)
            },
            control: ControlSpec {
                deadline_ms: if deadline_ms == 0 { None } else { Some(deadline_ms) },
                max_flows,
                shrink_on_overflow: variant & 1 == 1,
                trace: variant & 2 == 2,
                warm_start: variant & 4 == 4,
            },
            graph,
            // Half the cases propagate a context so the optional tail's
            // both shapes round-trip under the same property.
            context: (graph_id % 2 == 0).then_some(TraceContext {
                trace_hi: graph_id ^ 0x9e37_79b9_7f4a_7c15,
                trace_lo: graph_id | 1,
                parent_span: variant as u64,
                sampled: variant & 1 == 1,
            }),
        };
        holds(&req);
        let payload = Request::Explain(req.clone()).encode();
        let back = match Request::decode(&payload).unwrap() {
            Request::Explain(e) => e,
            _ => panic!("wrong variant"),
        };
        prop_assert_eq!(back.model, req.model);
        prop_assert_eq!(back.graph_id, req.graph_id);
        prop_assert_eq!(back.method, req.method);
        prop_assert_eq!(back.objective, req.objective);
        prop_assert_eq!(back.effort, req.effort);
        prop_assert_eq!(back.target, req.target);
        prop_assert_eq!(back.control.deadline_ms, req.control.deadline_ms);
        prop_assert_eq!(back.control.max_flows, req.control.max_flows);
        prop_assert_eq!(back.control.shrink_on_overflow, req.control.shrink_on_overflow);
        prop_assert_eq!(back.control.trace, req.control.trace);
        prop_assert_eq!(back.control.warm_start, req.control.warm_start);
        prop_assert_eq!(back.graph.edges(), req.graph.edges());
        prop_assert_eq!(back.graph.features(), req.graph.features());
        prop_assert_eq!(back.context, req.context);
    }

    #[test]
    fn explained_response_round_trips_bit_exact(
        edge_scores in prop::collection::vec(-1.0e20f32..1.0e20, 0..40),
        flow_scores in prop::collection::vec(-1.0f32..1.0, 0..40),
        degr in (0u64..3, 0usize..600, 0usize..600, 0u64..1_000_000),
        times in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let (flags, epochs_run, epochs_planned, flows_dropped) = degr;
        let resp = Response::Explained(ServedExplanation {
            edge_scores: edge_scores.clone(),
            layer_edge_scores: if flags & 1 == 0 {
                None
            } else {
                Some(vec![edge_scores.clone(), flow_scores.clone()])
            },
            flow_scores: if flags & 2 == 0 { None } else { Some(flow_scores) },
            degradation: Degradation {
                deadline_hit: flags == 2,
                epochs_run,
                epochs_planned,
                flows_dropped,
            },
            timing: WireTiming {
                queue_us: times.0,
                prep_us: times.1,
                explain_us: times.2,
                total_us: times.3,
            },
            trace_id: if flags & 1 == 1 { Some(flows_dropped) } else { None },
        });
        let payload = resp.encode();
        let back = match Response::decode(&payload).unwrap() {
            Response::Explained(e) => e,
            _ => panic!("wrong variant"),
        };
        match resp {
            // Compare bit patterns so a NaN score would also round-trip.
            Response::Explained(orig) => {
                holds(&orig);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                prop_assert_eq!(bits(&back.edge_scores), bits(&orig.edge_scores));
                prop_assert_eq!(back.flow_scores.is_some(), orig.flow_scores.is_some());
                prop_assert_eq!(back.degradation, orig.degradation);
                prop_assert_eq!(back.timing, orig.timing);
                prop_assert_eq!(back.trace_id, orig.trace_id);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn stats_round_trips(
        counters in prop::collection::vec(0u64..u64::MAX, 7),
        jobs in prop::collection::vec(0u64..u64::MAX, 4),
    ) {
        let mut s = ServerStats {
            connections_accepted: counters[0],
            connections_active: counters[1],
            bytes_in: counters[2],
            bytes_out: counters[3],
            requests: counters[4],
            shed: counters[5],
            protocol_errors: counters[6],
            ..ServerStats::default()
        };
        s.runtime.jobs_submitted = jobs[0];
        s.runtime.jobs_completed = jobs[1];
        s.runtime.jobs_rejected = jobs[2];
        s.runtime.cache_hits = jobs[3];
        holds(&s.runtime);
        let payload = Response::Stats(Box::new(s), None).encode();
        match Response::decode(&payload).unwrap() {
            Response::Stats(back, gateway) => {
                prop_assert_eq!(*back, s);
                prop_assert!(gateway.is_none());
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn every_proper_prefix_of_a_frame_is_rejected(
        payload in prop::collection::vec(0u8..=255, 0..64),
        cut in 0usize..1000,
    ) {
        let frame = encode_frame(&payload, 1024).unwrap();
        let cut = cut % frame.len();
        if cut == 0 {
            // Zero bytes is the one legal prefix: a clean EOF.
            let mut c = std::io::Cursor::new(Vec::<u8>::new());
            prop_assert!(read_frame(&mut c, 1024).unwrap().is_none());
        } else {
            let mut c = std::io::Cursor::new(frame[..cut].to_vec());
            prop_assert!(read_frame(&mut c, 1024).is_err());
        }
    }

    #[test]
    fn any_single_byte_corruption_is_detected(
        payload in prop::collection::vec(0u8..=255, 1..64),
        pos in 0usize..1000,
        xor in 1u8..=255,
    ) {
        let mut frame = encode_frame(&payload, 1024).unwrap();
        let pos = pos % frame.len();
        frame[pos] ^= xor;
        let mut c = std::io::Cursor::new(frame);
        // A flip in the header breaks magic/version/length/checksum; a flip
        // in the payload breaks the checksum. Either way: a typed error,
        // never silently-wrong bytes.
        match read_frame(&mut c, 1024) {
            Err(_) => {}
            Ok(got) => {
                // The only undetectable flip would be inside the length
                // field making the frame *longer* (reads past the buffer →
                // error, handled above). Same-length decode must match.
                prop_assert_eq!(got.map(|(p, _)| p), Some(payload));
                // ... and matching is impossible after an xor: fail loudly.
                prop_assert!(false, "corrupted frame decoded successfully");
            }
        }
    }

    #[test]
    fn every_message_codec_holds_the_codec_property(
        nums in prop::collection::vec(0u64..u64::MAX, 12),
        scores in prop::collection::vec(-1.0e20f32..1.0e20, 0..6),
        shape in (0usize..3, 0usize..4, 0u8..=255),
    ) {
        let (lists, count, flags) = shape;
        let bit = |i: u8| flags & (1 << i) != 0;
        let target = if bit(0) { Target::Node(nums[0] as usize) } else { Target::Graph };
        let degradation = Degradation {
            deadline_hit: bit(1),
            epochs_run: (nums[1] % 600) as usize,
            epochs_planned: 600,
            flows_dropped: nums[2],
        };
        let layer_scores = bit(2).then(|| vec![scores.clone(); lists]);
        let flow_scores = bit(3).then(|| scores.clone());
        let timing = WireTiming {
            queue_us: nums[3],
            prep_us: nums[4],
            explain_us: nums[5],
            total_us: nums[6],
        };
        holds(&timing);
        holds(&ServedExplanation {
            edge_scores: scores.clone(),
            layer_edge_scores: layer_scores.clone(),
            flow_scores: flow_scores.clone(),
            degradation,
            timing,
            trace_id: bit(4).then_some(nums[7]),
        });
        holds(&WireStoredExplanation {
            job_id: nums[0],
            model: nums[1] as u32,
            graph_id: nums[2],
            target,
            layers: 3,
            edge_scores: scores.clone(),
            layer_edge_scores: layer_scores,
            flow_scores,
            degradation,
            queue_us: nums[3],
            prep_us: nums[4],
            explain_us: nums[5],
            has_mask: bit(5),
        });
        holds(&WireExplanationSummary {
            job_id: nums[8],
            key: MaskKey {
                model_id: nums[9] as u32,
                graph_id: nums[10],
                target,
                layers: (nums[11] % 4) as u32,
            },
            degraded: bit(6),
            has_mask: bit(7),
        });
        let backend = |i: usize| GatewayBackendStats {
            addr: text(&nums[i..i + count]),
            healthy: bit(i as u8 % 8),
            consecutive_failures: nums[i] as u32,
            forwarded: nums[i + 1],
            errors: nums[i + 2],
            busy: nums[i + 3],
            health_checks: nums[i + 4],
            cache_hits: nums[i + 5],
            cache_misses: nums[i + 6],
            jobs_completed: nums[i + 7],
        };
        holds(&backend(0));
        holds(&GatewayStats {
            routed: nums[0],
            fanout: nums[1],
            rerouted: nums[2],
            scatter: nums[3],
            backends: (0..count).map(backend).collect(),
        });
        let lanes: Vec<String> = (0..count.max(1)).map(|i| text(&nums[i..i + 3])).collect();
        let spans: Vec<AssembledSpan> = (0..count)
            .map(|i| AssembledSpan {
                lane: (nums[i] % lanes.len() as u64) as u32,
                name: text(&nums[i + 1..i + 1 + count]),
                start_us: nums[i + 2],
                dur_us: nums[i + 3],
            })
            .collect();
        for span in &spans {
            holds(span);
        }
        let kinds = [
            PointKind::Epoch {
                index: nums[1] as u32,
                loss: scores.first().copied().unwrap_or(0.5),
                grad_norm: scores.last().copied().unwrap_or(-0.0),
            },
            PointKind::CacheProbe { hit: bit(0) },
            PointKind::DeadlineHit { epoch: nums[2] as u32 },
            PointKind::Note(text(&nums[..count])),
        ];
        // Rotate by the flag bits so every kind leads in some case.
        let events: Vec<AssembledEvent> = (0..count + 1)
            .map(|i| AssembledEvent {
                lane: (nums[i + 4] % lanes.len() as u64) as u32,
                at_us: nums[i + 5],
                kind: kinds[(i + flags as usize) % kinds.len()].clone(),
            })
            .collect();
        for e in &events {
            holds(&e.kind);
            holds(e);
        }
        let mut assembled = AssembledTrace {
            trace_hi: nums[5],
            trace_lo: nums[6],
            lanes,
            spans,
            events,
            dropped: nums[7],
        };
        holds(&assembled);
        // A point event off the lane list is a typed error, not a panic
        // in whatever later renders the trace.
        assembled.events[count].lane = assembled.lanes.len() as u32;
        prop_assert_eq!(
            AssembledTrace::from_bytes(&assembled.to_bytes()),
            Err(WireDecodeError::Invalid("lane index out of range"))
        );
        holds(&TraceContext {
            trace_hi: nums[8],
            trace_lo: nums[9],
            parent_span: nums[10],
            sampled: bit(1),
        });
        holds(&ControlSpec {
            deadline_ms: bit(2).then_some(nums[11]),
            max_flows: nums[0],
            shrink_on_overflow: bit(3),
            trace: bit(4),
            warm_start: bit(5),
        });
        holds(&degradation);
        holds(&target);
        let mut h: HistogramSnapshot = Default::default();
        for (b, &v) in h.buckets.iter_mut().zip(nums.iter().cycle().skip(count)) {
            *b = v;
        }
        h.count = nums[1];
        holds(&h);
    }

    #[test]
    fn random_payload_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }
}

/// Counter values a peer may send, drawn as (shape, bits) pairs: zero,
/// small, arbitrary or the maximum.
fn peer_words(raw: &[(u8, u64)]) -> Vec<u64> {
    raw.iter()
        .map(|&(shape, v)| match shape {
            0 => 0,
            1 => v % 1_000,
            2 => v,
            _ => u64::MAX,
        })
        .collect()
}

/// Words of a `Stats` answer before the gateway's stats: the seven wire
/// counters, the request-latency histogram, the runtime snapshot and the
/// two trace counters.
const STATS_WORDS: usize =
    9 + (<HistogramSnapshot as Codec>::MIN_LEN + MetricsSnapshot::MIN_LEN) / 8;

/// A `Stats` answer decoded from arbitrary counter words, as a peer can
/// send it: nothing ties a histogram's count to its buckets.
fn peer_stats(words: &[u64]) -> ServerStats {
    let mut payload = vec![Response::Stats(Box::default(), None).encode()[0]];
    for w in words {
        payload.extend_from_slice(&w.to_le_bytes());
    }
    payload.push(0); // no gateway stats
    match Response::decode(&payload).unwrap() {
        Response::Stats(s, None) => *s,
        _ => panic!("wrong variant"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a peer sends, merging, reporting and exposing its stats
    /// never panic, and the exposition stays well-formed: histograms stay
    /// cumulative and label values stay inside their quotes.
    #[test]
    fn peer_stats_merge_report_and_expose_without_panic(
        a in prop::collection::vec((0u8..4, 0u64..=u64::MAX), STATS_WORDS),
        b in prop::collection::vec((0u8..4, 0u64..=u64::MAX), STATS_WORDS),
        counters in prop::collection::vec((0u8..4, 0u64..=u64::MAX), 4 + 4 * 6),
        addrs in prop::collection::vec(prop::collection::vec(0usize..8, 0..12), 0..4),
    ) {
        let (a, b) = (peer_stats(&peer_words(&a)), peer_stats(&peer_words(&b)));
        let n = peer_words(&counters);
        let g = GatewayStats {
            routed: n[0],
            fanout: n[1],
            rerouted: n[2],
            scatter: n[3],
            backends: addrs
                .iter()
                .zip(n[4..].chunks(6))
                .map(|(addr, n)| GatewayBackendStats {
                    addr: addr.iter().map(|&c| ['a', '7', ':', '.', '\\', '"', '\n', ' '][c]).collect(),
                    healthy: n[0] % 2 == 0,
                    consecutive_failures: n[0] as u32,
                    forwarded: n[1],
                    errors: n[2],
                    busy: n[3],
                    health_checks: n[4],
                    cache_hits: n[5],
                    cache_misses: n[0],
                    jobs_completed: n[1],
                })
                .collect(),
        };
        let mut merged = a;
        merged.merge(&b);
        let _ = g.report();
        for s in [&a, &b, &merged] {
            let _ = s.report();
            let text = format!("{}{}", s.prometheus(), g.prometheus());
            let exp = parse_exposition(&text);
            prop_assert!(exp.is_ok(), "{:?}", exp.err());
            let up = exp.unwrap().samples_of("revelio_gateway_backend_up").len();
            prop_assert_eq!(up, g.backends.len());
        }
    }
}

/// An explain request payload around a hand-laid graph block: `nodes`
/// nodes, `feat_dim` columns, no edges, then `csr` (the entry count, row
/// offsets, columns and values exactly as given), no labels.
fn explain_payload_with_csr(nodes: u32, feat_dim: u32, csr: &[u32]) -> Vec<u8> {
    let req = ExplainRequest {
        model: 1,
        graph_id: 2,
        method: "REVELIO".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target: Target::Graph,
        control: ControlSpec::default(),
        graph: Graph::builder(0, 0).build(),
        context: None,
    };
    let valid = Request::Explain(req).encode();
    // The empty graph's block is its three counts, `nnz = 0`, one offset,
    // and two absent labels, followed by the absent context.
    let graph_at = valid.len() - (3 * 4 + 4 + 4 + 1 + 1) - 1;
    let mut out = valid[..graph_at].to_vec();
    for w in [nodes, feat_dim, 0].iter().chain(csr) {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.extend_from_slice(&[0, 0, 0]);
    out
}

fn decode_error(payload: &[u8]) -> WireDecodeError {
    match Request::decode(payload) {
        Err(e) => e,
        Ok(_) => panic!("hostile CSR graph decoded"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hostile CSR feature blocks are typed errors, never panics: offsets
    /// that decrease or do not end at the entry count, a column out of
    /// range or out of order, an explicit zero, and counts the remaining
    /// bytes cannot hold (refused before anything is allocated).
    #[test]
    fn hostile_csr_graphs_are_typed_errors(
        nodes in 2u32..6,
        feat_dim in 2u32..40,
        col in 0u32..40,
        bits in 1u32..u32::MAX,
        flaw in 0usize..6,
    ) {
        let col = col % feat_dim;
        let val = if f32::from_bits(bits) == 0.0 { 1.0f32.to_bits() } else { bits };
        // Valid baseline: node 0 holds `col` and `feat_dim - 1` (when
        // distinct), every other row is empty.
        let (cols, vals): (Vec<u32>, Vec<u32>) = if col + 1 < feat_dim {
            (vec![col, feat_dim - 1], vec![val, val])
        } else {
            (vec![col], vec![val])
        };
        let nnz = cols.len() as u32;
        let offsets = |first_row_end: u32| -> Vec<u32> {
            std::iter::once(0)
                .chain(std::iter::once(first_row_end))
                .chain((1..nodes).map(|_| nnz))
                .collect()
        };
        let block = |nnz: u32, offsets: &[u32], cols: &[u32], vals: &[u32]| -> Vec<u32> {
            std::iter::once(nnz)
                .chain(offsets.iter().copied())
                .chain(cols.iter().copied())
                .chain(vals.iter().copied())
                .collect()
        };
        let valid = explain_payload_with_csr(nodes, feat_dim, &block(nnz, &offsets(nnz), &cols, &vals));
        match Request::decode(&valid) {
            Ok(Request::Explain(e)) => {
                prop_assert_eq!(e.graph.features().nnz(), cols.len());
                prop_assert_eq!(e.graph.feature_row(0)[col as usize].to_bits(), val);
            }
            _ => panic!("baseline graph did not decode"),
        }
        let (payload, expect): (Vec<u32>, &str) = match flaw {
            0 => {
                // Offsets decrease: row 0 ends past row 1's end.
                let mut o = offsets(nnz);
                o[1] = nnz + 1;
                o[2] = nnz;
                (block(nnz, &o, &cols, &vals), "CSR offsets decrease")
            }
            1 => {
                // Offsets end short of the entry count.
                let o: Vec<u32> = offsets(nnz).iter().map(|&x| x.min(nnz - 1)).collect();
                (block(nnz, &o, &cols, &vals), "CSR offsets do not end at the entry count")
            }
            2 => {
                let mut c = cols.clone();
                let last = c.len() - 1;
                c[last] = feat_dim + col;
                (block(nnz, &offsets(nnz), &c, &vals), "CSR column index out of range")
            }
            3 => {
                // A repeated column is not strictly ascending.
                let c = vec![col; cols.len()];
                let v = vec![val; cols.len()];
                let n = c.len() as u32;
                let expect = if n > 1 {
                    "CSR columns not strictly ascending"
                } else {
                    // One entry cannot repeat; make it an explicit zero.
                    "CSR stores an explicit zero"
                };
                let v = if n > 1 { v } else { vec![(-0.0f32).to_bits()] };
                (block(n, &offsets(n), &c, &v), expect)
            }
            4 => {
                let mut v = vals.clone();
                v[0] = 0.0f32.to_bits();
                (block(nnz, &offsets(nnz), &cols, &v), "CSR stores an explicit zero")
            }
            _ => {
                // More entries than the matrix has cells.
                let n = nodes * feat_dim + 1;
                (block(n, &offsets(nnz), &cols, &vals), "feature entry count exceeds the matrix")
            }
        };
        prop_assert_eq!(
            decode_error(&explain_payload_with_csr(nodes, feat_dim, &payload)),
            WireDecodeError::Invalid(expect)
        );
    }
}

/// Counts larger than the remaining bytes fail as `Truncated` before the
/// arrays are allocated, and a dense shape above the cap fails from the
/// three counts alone.
#[test]
fn csr_counts_are_checked_before_allocating() {
    // A plausible entry count with no entries behind it.
    let payload = explain_payload_with_csr(4, 1000, &[3_000, 0]);
    assert!(matches!(
        decode_error(&payload),
        WireDecodeError::Truncated { .. }
    ));
    // Nodes whose row offsets are missing: refused before the builder
    // allocates per node.
    let payload = explain_payload_with_csr(1 << 22, 1, &[]);
    assert!(matches!(
        decode_error(&payload),
        WireDecodeError::Truncated { .. }
    ));
    // Above `MAX_WIRE_FEATURE_ENTRIES`: a 40-byte graph block declaring a
    // 2^16 x 2^16 matrix.
    let payload = explain_payload_with_csr(1 << 16, 1 << 16, &[0]);
    assert_eq!(
        decode_error(&payload),
        WireDecodeError::Invalid("feature matrix exceeds wire limit")
    );
    // Exactly at the cap the shape is accepted (the empty matrix is valid).
    let side = 1u32 << 11;
    let cap_rows = (MAX_WIRE_FEATURE_ENTRIES as u32) / side;
    let empty = vec![0u32; cap_rows as usize + 2];
    let payload = explain_payload_with_csr(cap_rows, side, &empty);
    match Request::decode(&payload) {
        Ok(Request::Explain(e)) => assert_eq!(e.graph.num_nodes(), cap_rows as usize),
        other => panic!("graph at the cap refused: {:?}", other.err()),
    }
}

/// Every byte a one-byte enum decodes from re-encodes to itself and holds
/// the codec property; the other bytes are typed errors.
#[test]
fn every_enum_tag_holds_the_codec_property() {
    fn tags<T: Codec + PartialEq + std::fmt::Debug>() -> usize {
        (0..=u8::MAX)
            .filter_map(|b| T::from_bytes(&[b]).ok().map(|v| (b, v)))
            .inspect(|(b, v)| {
                assert_eq!(v.to_bytes(), vec![*b]);
                holds(v);
            })
            .count()
    }
    assert_eq!(tags::<Objective>(), 2);
    assert_eq!(tags::<Effort>(), 2);
    assert_eq!(tags::<ErrorKind>(), 8);
    assert_eq!(tags::<bool>(), 2);
}

#[test]
fn oversized_frame_rejected_without_allocation() {
    // A header announcing a 3 GiB payload on a 16-byte connection budget
    // must be refused from the header alone.
    let mut frame = Vec::new();
    frame.extend_from_slice(b"RVLO");
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.extend_from_slice(&(3u32 << 30).to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    let mut c = std::io::Cursor::new(frame);
    assert!(matches!(
        read_frame(&mut c, 16),
        Err(WireError::FrameTooLarge { .. })
    ));
}

#[test]
fn wrong_version_is_a_typed_error() {
    let mut frame = encode_frame(b"payload", 1024).unwrap();
    let future = PROTOCOL_VERSION + 1;
    frame[4] = (future & 0xff) as u8;
    frame[5] = (future >> 8) as u8;
    let mut c = std::io::Cursor::new(frame);
    match read_frame(&mut c, 1024) {
        Err(WireError::UnsupportedVersion { got, expected }) => {
            assert_eq!(got, future);
            assert_eq!(expected, PROTOCOL_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn header_length_is_stable() {
    // The layout is a protocol commitment; catching accidental drift.
    let frame = encode_frame(b"", 1024).unwrap();
    assert_eq!(frame.len(), HEADER_LEN);
    assert_eq!(&frame[0..4], b"RVLO");
    assert_eq!(
        crc32(b""),
        u32::from_le_bytes([frame[10], frame[11], frame[12], frame[13]])
    );
}
