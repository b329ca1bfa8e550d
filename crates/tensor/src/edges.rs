//! The checked edge list that [`Tensor::message_pass`] runs over.
//!
//! [`Tensor::message_pass`]: crate::Tensor::message_pass

/// A bipartite edge list from `n_in` input rows to `n_out` output rows,
/// with the edges also grouped by destination and by source.
///
/// Edge `e` sends input row `src[e]` to output row `dst[e]`. Every endpoint
/// is bounds-checked once, here, so message passing over a shared index
/// (`Arc<EdgeIndex>`) neither copies nor re-checks it on each call. Each
/// group lists its edge ids in ascending order, which is what keeps a
/// gather over them summing in the same order as a scatter over `0..len`.
///
/// # Example
///
/// ```
/// use revelio_tensor::EdgeIndex;
///
/// // Three input rows feed two output rows.
/// let edges = EdgeIndex::new(3, 2, vec![0, 2, 1], vec![1, 0, 1]);
/// assert_eq!(edges.in_edges(1), &[0, 2]);
/// assert_eq!(edges.out_edges(2), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeIndex {
    n_in: usize,
    n_out: usize,
    src: Vec<usize>,
    dst: Vec<usize>,
    /// `in_ptr[t]..in_ptr[t+1]` indexes `in_edges`, the edge ids into
    /// output row `t`.
    in_ptr: Vec<usize>,
    in_edges: Vec<u32>,
    /// `out_ptr[s]..out_ptr[s+1]` indexes `out_edges`, the edge ids from
    /// input row `s`.
    out_ptr: Vec<usize>,
    out_edges: Vec<u32>,
}

impl EdgeIndex {
    /// Builds the index of edges `src[e] → dst[e]`.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length, a source is `>= n_in`,
    /// or a destination is `>= n_out`.
    pub fn new(n_in: usize, n_out: usize, src: Vec<usize>, dst: Vec<usize>) -> EdgeIndex {
        assert_eq!(
            src.len(),
            dst.len(),
            "EdgeIndex: {} sources but {} destinations",
            src.len(),
            dst.len()
        );
        if let Some(s) = src.iter().find(|&&s| s >= n_in) {
            panic!("EdgeIndex: source {s} out of bounds for {n_in} input rows");
        }
        if let Some(t) = dst.iter().find(|&&t| t >= n_out) {
            panic!("EdgeIndex: destination {t} out of bounds for {n_out} output rows");
        }
        let (in_ptr, in_edges) = group_by(&dst, n_out);
        let (out_ptr, out_edges) = group_by(&src, n_in);
        EdgeIndex {
            n_in,
            n_out,
            src,
            dst,
            in_ptr,
            in_edges,
            out_ptr,
            out_edges,
        }
    }

    /// Number of input rows the sources index.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of output rows the destinations index.
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the index holds no edge.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Source row of each edge.
    pub fn src(&self) -> &[usize] {
        &self.src
    }

    /// Destination row of each edge.
    pub fn dst(&self) -> &[usize] {
        &self.dst
    }

    /// The ids of the edges into output row `t`, ascending.
    pub fn in_edges(&self, t: usize) -> &[u32] {
        &self.in_edges[self.in_ptr[t]..self.in_ptr[t + 1]]
    }

    /// The ids of the edges from input row `s`, ascending.
    pub fn out_edges(&self, s: usize) -> &[u32] {
        &self.out_edges[self.out_ptr[s]..self.out_ptr[s + 1]]
    }
}

/// Counting sort of the edge ids by `keys[e] < n`: the `(ptr, ids)` CSR
/// grouping, each group in ascending edge id.
fn group_by(keys: &[usize], n: usize) -> (Vec<usize>, Vec<u32>) {
    let mut ptr = vec![0usize; n + 1];
    for &k in keys {
        ptr[k + 1] += 1;
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    let mut cursor = ptr.clone();
    let mut ids = vec![0u32; keys.len()];
    for (e, &k) in keys.iter().enumerate() {
        ids[cursor[k]] = e as u32;
        cursor[k] += 1;
    }
    (ptr, ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_ascending_and_complete() {
        let e = EdgeIndex::new(2, 3, vec![1, 0, 1, 1], vec![2, 2, 0, 2]);
        assert_eq!((e.n_in(), e.n_out(), e.len()), (2, 3, 4));
        assert_eq!(e.in_edges(0), &[2]);
        assert!(e.in_edges(1).is_empty());
        assert_eq!(e.in_edges(2), &[0, 1, 3]);
        assert_eq!(e.out_edges(0), &[1]);
        assert_eq!(e.out_edges(1), &[0, 2, 3]);
    }

    #[test]
    fn empty_index_is_valid() {
        let e = EdgeIndex::new(0, 0, Vec::new(), Vec::new());
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "source 2 out of bounds for 2 input rows")]
    fn rejects_source_out_of_bounds() {
        let _ = EdgeIndex::new(2, 3, vec![0, 2], vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "destination 3 out of bounds for 3 output rows")]
    fn rejects_destination_out_of_bounds() {
        let _ = EdgeIndex::new(2, 3, vec![0, 1], vec![3, 0]);
    }

    #[test]
    #[should_panic(expected = "2 sources but 1 destinations")]
    fn rejects_ragged_endpoints() {
        let _ = EdgeIndex::new(2, 3, vec![0, 1], vec![0]);
    }
}
