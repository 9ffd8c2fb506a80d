//! The metric catalogue: every end-to-end and per-layer metric by name, with
//! unit and direction.  `BENCHMARK.json` at the repository root lists the
//! same names (a test keeps the two in step); a run with `--trace 0` prints
//! every end-to-end metric, a run with `--trace 1` every per-layer metric.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `better` string of `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees.  Every workload reports every one, and
/// none is ever 0.  The two `ratio` metrics are exact: computed from counts,
/// the same seed must reproduce them digit for digit.
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    lower("wall_s", "s"),
    lower("latency_tail_ms", "ms"),
    higher("throughput_rps", "1/s"),
    lower("peak_rss_mb", "MiB"),
    lower("peak_vs_postorder", "ratio"),
    lower("io_vs_bound", "ratio"),
];

/// Per-layer counts that are a pure function of the seed.  The driver puts
/// no bound on per-layer metrics; `benchmark compare` holds these to
/// equality, so an ordering that fills more or a heuristic that schedules
/// worse cannot hide behind a faster time.
pub const EXACT_LAYER_COUNTS: [&str; 9] = [
    "sparsemat.nnz",
    "symbolic.supernodes",
    "symbolic.factor_nnz",
    "symbolic.flops",
    "treemem.peak",
    "minio.io_volume",
    "minio.files_written",
    "multifrontal.flops",
    "multifrontal.measured_peak_entries",
];

/// One table per crate, from the traced run.  A layer a workload does not
/// enter reports 0.
pub const PER_LAYER: [MetricDef; 86] = [
    // sparsemat
    lower("sparsemat.generate_s", "s"),
    lower("sparsemat.spd_values_s", "s"),
    lower("sparsemat.nnz", "count"),
    // ordering
    lower("ordering.order_s", "s"),
    lower("ordering.permute_s", "s"),
    lower("ordering.fill_ratio", "ratio"),
    // symbolic
    lower("symbolic.etree_s", "s"),
    lower("symbolic.colcount_s", "s"),
    lower("symbolic.amalgamate_s", "s"),
    lower("symbolic.supernodes", "count"),
    lower("symbolic.factor_nnz", "count"),
    lower("symbolic.flops", "count"),
    // treemem
    lower("treemem.postorder_s", "s"),
    lower("treemem.liu_s", "s"),
    lower("treemem.minmem_s", "s"),
    lower("treemem.model_order_s", "s"),
    lower("treemem.cut_s", "s"),
    lower("treemem.peak", "count"),
    // minio
    lower("minio.lsnf_s", "s"),
    lower("minio.firstfit_s", "s"),
    lower("minio.bestk_s", "s"),
    lower("minio.bound_s", "s"),
    lower("minio.io_volume", "count"),
    lower("minio.files_written", "count"),
    // multifrontal
    lower("multifrontal.structure_s", "s"),
    lower("multifrontal.model_s", "s"),
    lower("multifrontal.factor_s", "s"),
    lower("multifrontal.solve_check_s", "s"),
    lower("multifrontal.kernel_replay_s", "s"),
    higher("multifrontal.kernel_share", "ratio"),
    lower("multifrontal.flops", "count"),
    higher("multifrontal.gflops", "1/s"),
    lower("multifrontal.solve_s", "s"),
    lower("multifrontal.measured_peak_entries", "count"),
    // engine
    lower("engine.plan_s", "s"),
    lower("engine.schedule_s", "s"),
    lower("engine.execute_s", "s"),
    lower("engine.plan_self_s", "s"),
    lower("engine.schedule_self_s", "s"),
    lower("engine.execute_self_s", "s"),
    lower("engine.report_json_s", "s"),
    lower("engine.report_json_bytes", "count"),
    lower("engine.config_parse_s", "s"),
    lower("engine.config_hash_s", "s"),
    lower("engine.timings_sum_s", "s"),
    lower("engine.unattributed_frac", "ratio"),
    higher("engine.par_utilization", "ratio"),
    lower("engine.par_merge_s", "s"),
    lower("engine.par_critical_path_s", "s"),
    // distrib
    lower("distrib.claim_post_s", "s"),
    lower("distrib.contribute_post_s", "s"),
    lower("distrib.frame_mb", "MiB"),
    lower("distrib.encode_s", "s"),
    lower("distrib.decode_s", "s"),
    lower("distrib.worker_plan_s", "s"),
    lower("distrib.worker_factor_s", "s"),
    lower("distrib.merge_s", "s"),
    lower("distrib.worker_busy_s", "s"),
    lower("distrib.contribution_mb", "MiB"),
    lower("distrib.requeues", "count"),
    lower("distrib.lease_expiries", "count"),
    // server
    lower("server.schedule_hit_p50_ms", "ms"),
    lower("server.report_hit_p50_ms", "ms"),
    lower("server.report_miss_p50_ms", "ms"),
    lower("server.solve_p50_ms", "ms"),
    lower("server.handle_schedule_p50_ms", "ms"),
    lower("server.handle_report_hit_p50_ms", "ms"),
    lower("server.handle_report_miss_p50_ms", "ms"),
    lower("server.handle_solve_p50_ms", "ms"),
    lower("server.http_overhead_ms", "ms"),
    higher("server.plan_hit_ratio", "ratio"),
    higher("server.factor_hit_ratio", "ratio"),
    lower("server.plan_evictions", "count"),
    lower("server.factor_evictions", "count"),
    lower("server.solve_refetch", "count"),
    lower("server.shed_503", "count"),
    lower("server.response_bytes_p50", "count"),
    lower("server.stage_parse_ms", "ms"),
    lower("server.stage_plan_ms", "ms"),
    lower("server.stage_numeric_ms", "ms"),
    higher("server.requests", "count"),
    // harness
    higher("harness.attributed_frac", "ratio"),
    lower("harness.trace_overhead_frac", "ratio"),
    higher("harness.traced_ops", "count"),
    lower("harness.traced_op_s", "s"),
    lower("harness.replay_s", "s"),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|def| def.name == name)
}

/// Whether `compare` holds the metric to equality.
pub fn is_exact(def: &MetricDef) -> bool {
    EXACT_LAYER_COUNTS.contains(&def.name)
        || (def.unit == "ratio" && END_TO_END.iter().any(|e| e.name == def.name))
}

/// Samples of named metrics, reduced to one value per metric by the median
/// (counts repeat exactly, so their median is the count).
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    /// Record one sample of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            find(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.entry(name).or_default().push(value);
    }

    /// Record one repetition's values, one sample per metric it names.
    pub fn push_rep(&mut self, rep: BTreeMap<&'static str, f64>) {
        for (name, value) in rep {
            self.push(name, value);
        }
    }

    /// All samples of `name`.
    pub fn get(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`'s samples, if any were recorded.
    pub fn median(&self, name: &str) -> Option<f64> {
        let samples = self.get(name);
        if samples.is_empty() {
            return None;
        }
        Some(perfprof::summarize_seconds(samples).median_seconds)
    }
}
