//! `TimedBackend`: a [`GpuBackend`] wrapper that opens a
//! `backend.<method>` span around every call it forwards.
//!
//! It forwards all 28 trait methods, the four with default bodies
//! (`grouped_sum_count`, `filter_sum_product`, `fused_map`,
//! `fused_filter_agg`) included: were those left to the trait defaults,
//! the wrapper would recompose them from primitive calls and bypass each
//! backend's native lowering. Introspection (`name`, `device`, `support`,
//! `realization`) forwards without a span.

use crate::trace;
use gpu_sim::{Device, Result};
use proto_core::backend::{Col, GpuBackend, Pred};
use proto_core::fused::{FusedExpr, FusedPred};
use proto_core::ops::{CmpOp, Connective, DbOperator, JoinAlgo, Support};
use std::sync::Arc;

/// The traced methods, in trait order: every data-movement and operator
/// method of [`GpuBackend`]. Per-method metrics are reported for each.
pub const METHODS: [&str; 24] = [
    "upload_u32",
    "upload_f64",
    "download_u32",
    "download_f64",
    "free",
    "selection",
    "selection_multi",
    "selection_cmp_cols",
    "dense_mask",
    "product",
    "affine",
    "constant_f64",
    "reduction",
    "prefix_sum",
    "sort",
    "sort_by_key",
    "grouped_sum",
    "gather",
    "scatter",
    "join",
    "grouped_sum_count",
    "filter_sum_product",
    "fused_map",
    "fused_filter_agg",
];

/// Forward `$call` inside a `backend.<$m>` span tagged with the backend.
macro_rules! traced {
    ($self:ident, $m:literal, $call:expr) => {{
        let _span = trace::span(concat!("backend.", $m), $self.inner.name());
        $call
    }};
}

/// A backend whose forwarded calls are recorded as spans.
pub struct TimedBackend {
    inner: Box<dyn GpuBackend>,
}

impl TimedBackend {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn GpuBackend>) -> Self {
        TimedBackend { inner }
    }
}

impl std::fmt::Debug for TimedBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedBackend")
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl GpuBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn device(&self) -> Arc<Device> {
        self.inner.device()
    }

    fn support(&self, op: DbOperator) -> Support {
        self.inner.support(op)
    }

    fn realization(&self, op: DbOperator) -> &'static str {
        self.inner.realization(op)
    }

    fn upload_u32(&self, data: &[u32]) -> Result<Col> {
        traced!(self, "upload_u32", self.inner.upload_u32(data))
    }

    fn upload_f64(&self, data: &[f64]) -> Result<Col> {
        traced!(self, "upload_f64", self.inner.upload_f64(data))
    }

    fn download_u32(&self, col: &Col) -> Result<Vec<u32>> {
        traced!(self, "download_u32", self.inner.download_u32(col))
    }

    fn download_f64(&self, col: &Col) -> Result<Vec<f64>> {
        traced!(self, "download_f64", self.inner.download_f64(col))
    }

    fn free(&self, col: Col) -> Result<()> {
        traced!(self, "free", self.inner.free(col))
    }

    fn selection(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        traced!(self, "selection", self.inner.selection(col, cmp, lit))
    }

    fn selection_multi(&self, preds: &[Pred<'_>], conn: Connective) -> Result<Col> {
        traced!(
            self,
            "selection_multi",
            self.inner.selection_multi(preds, conn)
        )
    }

    fn selection_cmp_cols(&self, a: &Col, b: &Col, cmp: CmpOp) -> Result<Col> {
        traced!(
            self,
            "selection_cmp_cols",
            self.inner.selection_cmp_cols(a, b, cmp)
        )
    }

    fn dense_mask(&self, col: &Col, cmp: CmpOp, lit: f64) -> Result<Col> {
        traced!(self, "dense_mask", self.inner.dense_mask(col, cmp, lit))
    }

    fn product(&self, a: &Col, b: &Col) -> Result<Col> {
        traced!(self, "product", self.inner.product(a, b))
    }

    fn affine(&self, col: &Col, mul: f64, add: f64) -> Result<Col> {
        traced!(self, "affine", self.inner.affine(col, mul, add))
    }

    fn constant_f64(&self, len: usize, value: f64) -> Result<Col> {
        traced!(self, "constant_f64", self.inner.constant_f64(len, value))
    }

    fn reduction(&self, col: &Col) -> Result<f64> {
        traced!(self, "reduction", self.inner.reduction(col))
    }

    fn prefix_sum(&self, col: &Col) -> Result<Col> {
        traced!(self, "prefix_sum", self.inner.prefix_sum(col))
    }

    fn sort(&self, col: &Col) -> Result<Col> {
        traced!(self, "sort", self.inner.sort(col))
    }

    fn sort_by_key(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        traced!(self, "sort_by_key", self.inner.sort_by_key(keys, vals))
    }

    fn grouped_sum(&self, keys: &Col, vals: &Col) -> Result<(Col, Col)> {
        traced!(self, "grouped_sum", self.inner.grouped_sum(keys, vals))
    }

    fn gather(&self, data: &Col, idx: &Col) -> Result<Col> {
        traced!(self, "gather", self.inner.gather(data, idx))
    }

    fn scatter(&self, data: &Col, idx: &Col, dst_len: usize) -> Result<Col> {
        traced!(self, "scatter", self.inner.scatter(data, idx, dst_len))
    }

    fn join(&self, outer: &Col, inner: &Col, algo: JoinAlgo) -> Result<(Col, Col)> {
        traced!(self, "join", self.inner.join(outer, inner, algo))
    }

    fn grouped_sum_count(&self, keys: &Col, vals: &Col) -> Result<(Col, Col, Col)> {
        traced!(
            self,
            "grouped_sum_count",
            self.inner.grouped_sum_count(keys, vals)
        )
    }

    fn filter_sum_product(&self, a: &Col, b: &Col, preds: &[Pred<'_>]) -> Result<f64> {
        traced!(
            self,
            "filter_sum_product",
            self.inner.filter_sum_product(a, b, preds)
        )
    }

    fn fused_map(&self, inputs: &[&Col], expr: &FusedExpr) -> Result<Col> {
        traced!(self, "fused_map", self.inner.fused_map(inputs, expr))
    }

    fn fused_filter_agg(
        &self,
        inputs: &[&Col],
        preds: &[FusedPred],
        expr: &FusedExpr,
    ) -> Result<f64> {
        traced!(
            self,
            "fused_filter_agg",
            self.inner.fused_filter_agg(inputs, preds, expr)
        )
    }
}

/// Wrap `inner` in a [`TimedBackend`] when `wrap` is set.
pub fn maybe_wrap(inner: Box<dyn GpuBackend>, wrap: bool) -> Box<dyn GpuBackend> {
    if wrap {
        Box::new(TimedBackend::new(inner))
    } else {
        inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proto_core::framework::Framework;

    #[test]
    fn wrapper_keeps_native_lowerings_and_records_spans() {
        let spec = gpu_sim::DeviceSpec::gtx1080();
        let plain = Framework::single_backend(&spec, "Handwritten");
        let wrapped = TimedBackend::new(Framework::single_backend(&spec, "Handwritten"));
        let run = |b: &dyn GpuBackend| {
            let k = b.upload_u32(&[3, 1, 3, 2]).unwrap();
            let v = b.upload_f64(&[1.0, 2.0, 3.0, 4.0]).unwrap();
            let (gk, s, c) = b.grouped_sum_count(&k, &v).unwrap();
            let out = (
                b.download_u32(&gk).unwrap(),
                b.download_f64(&s).unwrap(),
                b.download_f64(&c).unwrap(),
            );
            for col in [k, gk, s, c] {
                b.free(col).unwrap();
            }
            b.free(v).unwrap();
            (out, b.device().stats(), b.device().now())
        };
        trace::enable(true);
        let got = run(&wrapped);
        trace::enable(false);
        let spans = trace::take();
        assert_eq!(run(plain.as_ref()), got);
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        // One span for the fused call: the handwritten single-pass
        // lowering ran, not the default's two grouped_sum passes.
        assert_eq!(
            names
                .iter()
                .filter(|n| **n == "backend.grouped_sum_count")
                .count(),
            1
        );
        assert!(!names.contains(&"backend.grouped_sum"));
        assert!(spans.iter().all(|s| s.tag == "Handwritten"));
        assert_eq!(wrapped.name(), "Handwritten");
    }
}
