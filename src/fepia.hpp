// Umbrella header for the fepia library.
//
// fepia implements the FePIA robustness-metric procedure (Ali et al.,
// IEEE TPDS 2004) and its extension to perturbation parameters of
// multiple kinds (Eslamnour & Ali, IPDPS 2005): robustness radii as
// nearest-boundary distances, min-aggregation into rho, and the
// sensitivity-weighted and normalized-by-original P-space merge schemes.
//
// Typical entry points:
//   radius::FepiaProblem        — the four-step pipeline facade
//   radius::MergedAnalysis      — multi-kind (P-space) analysis
//   alloc::makespanProblem      — the makespan case study of [2]
//   hiperd::makeReferenceSystem — the HiPer-D case study topology
//   des::simulatePipeline       — empirical validation of the metric
#pragma once

#include "ad/dual.hpp"
#include "ad/gradient.hpp"
#include "alloc/allocation.hpp"
#include "alloc/heuristics.hpp"
#include "alloc/robustness.hpp"
#include "alloc/eval_engine.hpp"
#include "alloc/failure.hpp"
#include "alloc/genetic.hpp"
#include "alloc/search.hpp"
#include "classify/block_classifier.hpp"
#include "des/pipeline.hpp"
#include "etc/etc.hpp"
#include "fault/degraded.hpp"
#include "fault/plan.hpp"
#include "feature/feature.hpp"
#include "feature/generic.hpp"
#include "feature/linear.hpp"
#include "feature/quadratic.hpp"
#include "feature/transform.hpp"
#include "hiperd/factory.hpp"
#include "hiperd/system.hpp"
#include "io/problem_io.hpp"
#include "io/system_io.hpp"
#include "la/cholesky.hpp"
#include "la/geometry.hpp"
#include "la/point_block.hpp"
#include "la/matrix.hpp"
#include "la/vector.hpp"
#include "obs/metrics.hpp"
#include "opt/boundary.hpp"
#include "opt/nelder_mead.hpp"
#include "opt/penalty.hpp"
#include "opt/scalar.hpp"
#include "perturb/parameter.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/space.hpp"
#include "radius/closed_forms.hpp"
#include "radius/diagnostics.hpp"
#include "radius/mahalanobis.hpp"
#include "radius/engine.hpp"
#include "radius/fepia.hpp"
#include "radius/merge.hpp"
#include "radius/rho.hpp"
#include "report/table.hpp"
#include "rng/distributions.hpp"
#include "rng/xoshiro.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "sweep/engine.hpp"
#include "sweep/journal.hpp"
#include "sweep/output.hpp"
#include "sweep/spec.hpp"
#include "trace/trace.hpp"
#include "units/unit.hpp"
#include "validate/empirical.hpp"
#include "validate/report.hpp"
#include "validate/scheme.hpp"
